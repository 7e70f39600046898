package core

import (
	"errors"
	"fmt"

	"enld/internal/dataset"
	"enld/internal/mat"
	"enld/internal/nn"
)

// ModelUpdate performs Algorithm 4: retrain the general model on the clean
// inventory samples S_c accumulated across detection tasks, swap the roles
// of I_t and I_c (the former training half becomes the new contrastive
// candidate set), and re-estimate the conditional probability on the new
// I_c. The platform is modified in place; on error it is left unchanged.
//
// selected is the union of SelectedInventory sets from previous DetectFull
// calls — IDs into the platform's current I_c.
func (p *Platform) ModelUpdate(selected map[int]bool) error {
	if len(selected) == 0 {
		return errors.New("core: model update with empty selection")
	}
	clean := make(dataset.Set, 0, len(selected))
	for _, smp := range p.Ic {
		if selected[smp.ID] {
			clean = append(clean, smp)
		}
	}
	if len(clean) == 0 {
		return errors.New("core: selected IDs not found in I_c")
	}
	// Train θᵘ from scratch on S_c: the selected samples are (near-)clean,
	// so a fresh model avoids inheriting noise memorized by θ.
	rng := mat.NewRNG(p.Config.Seed ^ 0xa5a5a5a5)
	updated, err := nn.Build(p.Config.Arch, p.Config.InputDim, p.Config.Classes, rng)
	if err != nil {
		return err
	}
	prevModel, prevCond := p.Model, p.Cond
	prevIt, prevIc := p.It, p.Ic
	if err := p.trainGeneral(updated, clean, rng.Uint64()); err != nil {
		return fmt.Errorf("core: model update training: %w", err)
	}
	p.Model = updated
	p.It, p.Ic = p.Ic, p.It // swap(I_t, I_c)
	if err := p.estimate(); err != nil {
		p.Model, p.Cond = prevModel, prevCond
		p.It, p.Ic = prevIt, prevIc
		return err
	}
	return nil
}

// TrueAccuracy reports accuracy against ground-truth labels — an
// evaluation-only metric used by the Table II experiment, where the paper
// measures generalization of θ versus θᵘ.
func (p *Platform) TrueAccuracy(set dataset.Set) float64 {
	if len(set) == 0 {
		return 0
	}
	xs := make([][]float64, len(set))
	for i, smp := range set {
		xs[i] = smp.X
	}
	correct := 0
	for i, pred := range p.Model.PredictBatch(xs, 1) {
		if pred == set[i].True {
			correct++
		}
	}
	return float64(correct) / float64(len(set))
}
