package experiments

import (
	"enld/internal/baselines"
	"enld/internal/detect"
)

// MethodNames lists the Name() of every AllMethods detector, in AllMethods
// order, so a method name can be checked, and its detector found, without a
// workbench.
var MethodNames = []string{"default", "cl-1", "cl-2", "topofilter", "enld", "losstrack", "incv", "coteaching"}

// AllMethods is StandardMethods plus the extension detectors: loss tracking
// (O2U-style), iterative cross-validation (INCV-style) and Co-teaching.
func AllMethods(wb *Workbench, seed uint64) []detect.Detector {
	return append(StandardMethods(wb, seed),
		baselines.LossTrack{
			Arch:      wb.Platform.Config.Arch,
			InputDim:  wb.Spec.FeatureDim,
			Classes:   wb.Spec.Classes,
			Inventory: wb.Inventory,
			Config:    baselines.DefaultLossTrackConfig(seed + 1),
		},
		baselines.INCV{
			Arch:      wb.Platform.Config.Arch,
			InputDim:  wb.Spec.FeatureDim,
			Classes:   wb.Spec.Classes,
			Inventory: wb.Inventory,
			Config:    baselines.DefaultINCVConfig(seed + 2),
		},
		baselines.CoTeaching{
			Arch:      wb.Platform.Config.Arch,
			InputDim:  wb.Spec.FeatureDim,
			Classes:   wb.Spec.Classes,
			Inventory: wb.Inventory,
			Config:    baselines.DefaultCoTeachingConfig(seed + 3),
		})
}

// RunExt1 is an extension beyond the paper's comparison set: the §V-A4
// methods plus loss-tracking and cross-validation detectors (the O2U-Net / small-loss and INCV families, which
// the paper discusses as related work in §II but does not evaluate) on the
// CIFAR100-like benchmark. The paper argues in §I that directly adopting
// loss-tracking methods to incremental data performs poorly because of the
// limited sample diversity of each arrival; this experiment measures that
// claim.
func RunExt1(cfg Config) (*FigureResult, error) {
	cfg = cfg.normalized()
	out := &FigureResult{ID: "ext1", Title: "extended comparison: loss tracking, INCV, co-teaching (CIFAR100-like)"}
	for _, eta := range cfg.Etas {
		wb, err := BuildWorkbench("cifar100", eta, cfg)
		if err != nil {
			return nil, err
		}
		detectors := AllMethods(wb, cfg.Seed+3)
		for _, d := range detectors {
			agg, proc, work, _, err := runDetector(d, wb.Shards)
			if err != nil {
				return nil, err
			}
			setup := wb.Platform.SetupTime
			switch d.Name() {
			case "topofilter", "losstrack", "incv", "coteaching":
				setup = 0 // per-request training methods have no setup phase
			}
			out.Rows = append(out.Rows, MethodScore{
				Method: d.Name(), Eta: eta, Agg: agg,
				SetupTime: setup, MeanProcess: proc, MeanWork: work,
			})
		}
	}
	out.render(cfg.Out)
	return out, nil
}
