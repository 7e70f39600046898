package enld

// Benchmarks: one per table/figure of the paper (regenerating the artifact
// at reduced scale per iteration) plus kernel benchmarks for the substrates
// whose complexity the paper calls out (KD-tree versus brute-force k-NN,
// §IV-D) and per-method end-to-end detection cost (Fig. 8).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks measure the full experiment pipeline — dataset
// generation, platform training, every method on every shard — so they are
// dominated by training time exactly as the paper's timings are.

import (
	"testing"

	"enld/internal/core"
	"enld/internal/dataset"
	"enld/internal/experiments"
	"enld/internal/kdtree"
	"enld/internal/mat"
	"enld/internal/nn"
	"enld/internal/obs"
	"enld/internal/sampling"
)

// benchCfg is the reduced-scale configuration the per-figure benchmarks use.
func benchCfg(seed uint64) experiments.Config {
	return experiments.Config{
		Seed:           seed,
		DataScale:      0.4,
		Shards:         2,
		Etas:           []float64{0.2},
		PlatformEpochs: 10,
		Iterations:     3,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, benchCfg(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2") }

// Extension experiments (beyond the paper's evaluation; see DESIGN.md).
func BenchmarkExt1(b *testing.B) { benchExperiment(b, "ext1") }
func BenchmarkExt2(b *testing.B) { benchExperiment(b, "ext2") }
func BenchmarkExt3(b *testing.B) { benchExperiment(b, "ext3") }

// BenchmarkENLDAblations measures per-request cost of each §V-I ablation
// variant on an identical incremental dataset — the cost side of Fig. 14
// (e.g. ENLD-3 trades accuracy for a smaller training set).
func BenchmarkENLDAblations(b *testing.B) {
	wb := benchWorkbench(b)
	shard := wb.Shards[0]
	for name, cfg := range experiments.AblationVariants(wb.ENLDCfg) {
		d := &core.ENLD{Platform: wb.Platform, Config: cfg}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Detect(shard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContrastiveIndex compares the KD-tree contrastive sampler with
// the brute-force scan inside a full detection run (§IV-D).
func BenchmarkContrastiveIndex(b *testing.B) {
	wb := benchWorkbench(b)
	shard := wb.Shards[0]
	for _, strat := range []sampling.Strategy{
		sampling.Contrastive{},
		sampling.Contrastive{Brute: true},
	} {
		cfg := wb.ENLDCfg
		cfg.Strategy = strat
		d := &core.ENLD{Platform: wb.Platform, Config: cfg}
		b.Run(strat.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Detect(shard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorkbench builds one small prepared workload shared by the
// per-method benchmarks.
func benchWorkbench(b *testing.B) *experiments.Workbench {
	b.Helper()
	wb, err := experiments.BuildWorkbench("cifar100", 0.2, benchCfg(1))
	if err != nil {
		b.Fatal(err)
	}
	return wb
}

// BenchmarkDetect measures per-request detection cost of each method on an
// identical incremental dataset — the per-task process-time comparison
// behind Fig. 8. enld-workers=1 is ENLD on its own workbench config; it keeps
// the name its committed BENCH_ci.json baseline row carries.
func BenchmarkDetect(b *testing.B) {
	wb := benchWorkbench(b)
	shard := wb.Shards[0]
	for _, d := range experiments.StandardMethods(wb, 99) {
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Detect(shard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	d := &core.ENLD{Platform: wb.Platform, Config: wb.ENLDCfg}
	b.Run("enld-workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Detect(shard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlatformSetup measures general-model initialization — the
// paper's "setup time".
func BenchmarkPlatformSetup(b *testing.B) {
	cfg := benchCfg(1)
	spec := dataset.CIFAR100Like(1).Scale(cfg.DataScale)
	data, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inv := data.Clone()
		b.StartTimer()
		if _, err := NewPlatform(inv, DefaultPlatformConfig(spec.Classes, spec.FeatureDim, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNN compares the per-class KD-tree against the brute-force scan
// for the k-nearest queries of contrastive sampling (§IV-D's complexity
// argument: O(k·|A|·log|H'|) versus O(c·|A|·|H'|)).
func BenchmarkKNN(b *testing.B) {
	rng := mat.NewRNG(5)
	const dim, k = 64, 3
	for _, n := range []int{256, 1024, 4096} {
		pts := make([]kdtree.Point, n)
		for i := range pts {
			pts[i] = kdtree.Point{Vec: rng.NormVec(make([]float64, dim), 0, 1), Payload: i}
		}
		query := rng.NormVec(make([]float64, dim), 0, 1)
		tree, err := kdtree.Build(pts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("kdtree/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tree.KNearest(query, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("into/n="+itoa(n), func(b *testing.B) {
			// The allocation-free variant contrastive sampling uses: one
			// warmed-up scratch.
			var s kdtree.Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.KNearestInto(&s, query, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("brute/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kdtree.BruteKNearest(pts, query, k)
			}
		})
	}
}

// BenchmarkKDTreeBuild measures index construction, which contrastive
// sampling repeats once per fine-grained NLD iteration.
func BenchmarkKDTreeBuild(b *testing.B) {
	rng := mat.NewRNG(6)
	const dim = 64
	pts := make([]kdtree.Point, 2048)
	for i := range pts {
		pts[i] = kdtree.Point{Vec: rng.NormVec(make([]float64, dim), 0, 1), Payload: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kdtree.Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one epoch of the neural substrate — the unit
// of work both TopoFilter's training and ENLD's fine-tuning are built from.
// workers=1 keeps the name its committed BENCH_ci.json baseline row and the
// obs ratio gate carry.
func BenchmarkTrainEpoch(b *testing.B) {
	rng := mat.NewRNG(7)
	net, err := nn.Build(nn.SimResNet110, 48, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	examples := make([]nn.Example, 512)
	for i := range examples {
		examples[i] = nn.Example{
			X:      rng.NormVec(make([]float64, 48), 0, 1),
			Target: nn.OneHot(i%100, 100),
		}
	}
	b.Run("workers=1", func(b *testing.B) {
		trainer := nn.NewTrainer(net, nn.NewSGD(0.01, 0.9, 1e-4))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trainer.Run(examples, nn.TrainConfig{
				Epochs: 1, BatchSize: 32, Seed: uint64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Same epoch with an observability registry attached —
	// every batch observes a duration and a loss into histograms; benchsummary
	// gates the obs/workers=1 ratio to keep metric recording off the
	// per-sample hot path (< 5% overhead).
	b.Run("obs", func(b *testing.B) {
		trainer := nn.NewTrainer(net, nn.NewSGD(0.01, 0.9, 1e-4))
		trainer.Obs = obs.NewRegistry()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trainer.Run(examples, nn.TrainConfig{
				Epochs: 1, BatchSize: 32, Seed: uint64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkForward measures inference cost — the unit behind the ambiguous/
// high-quality re-scoring of each ENLD iteration: one sample at a time
// (single) and a whole shard-sized batch (batch-workers=1, the name its
// committed BENCH_ci.json baseline row carries).
func BenchmarkForward(b *testing.B) {
	rng := mat.NewRNG(8)
	net, err := nn.Build(nn.SimResNet110, 48, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := rng.NormVec(make([]float64, 48), 0, 1)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.Evaluate(x)
		}
	})
	xs := make([][]float64, 256)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 48), 0, 1)
	}
	b.Run("batch-workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.EvaluateBatch(xs)
		}
	})
}

// BenchmarkGemm measures the blocked kernels across the shapes the batched
// passes hit: square products plus the forward (NT, batch×in · out×in) and
// weight-gradient (TN, batch×out ᵀ· batch×in) shapes of the SimResNet110
// layers at the trainer's chunk size and the inference chunk size.
func BenchmarkGemm(b *testing.B) {
	rng := mat.NewRNG(9)
	newM := func(rows, cols int) *mat.Matrix {
		m := mat.NewMatrix(rows, cols)
		rng.NormVec(m.Data, 0, 1)
		return m
	}
	for _, n := range []int{16, 64, 128} {
		A, B, C := newM(n, n), newM(n, n), mat.NewMatrix(n, n)
		b.Run("nn/n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				C.Zero()
				mat.Gemm(C, A, B)
			}
		})
	}
	for _, bench := range []struct {
		name         string
		m, n, k      int
		kind         func(C, A, B *mat.Matrix)
		aRows, aCols int
		bRows, bCols int
	}{
		// Forward Y(batch×out) += X(batch×in)·W(out×in)ᵀ, trainer chunk.
		{"nt/batch=8-128x96", 8, 96, 128, mat.GemmNT, 8, 128, 96, 128},
		// Forward at the inference chunk size.
		{"nt/batch=64-128x96", 64, 96, 128, mat.GemmNT, 64, 128, 96, 128},
		// Weight gradient gW(out×in) += delta(batch×out)ᵀ·X(batch×in).
		{"tn/batch=64-96x128", 96, 128, 64, mat.GemmTN, 64, 96, 64, 128},
	} {
		A, B2 := newM(bench.aRows, bench.aCols), newM(bench.bRows, bench.bCols)
		C := mat.NewMatrix(bench.m, bench.n)
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				C.Zero()
				bench.kind(C, A, B2)
			}
		})
	}
	// Ragged tails, shaped like the network: the 26-class output layer's
	// forward leaves a 2-column tail (26 = 3·8 + 2), a 3-row last mini-batch
	// leaves a row tail, and the output layer's weight gradient over a
	// 16-row chunk leaves a 2-row tail. These and the PackNT rows run one
	// untimed call first: CI times a single iteration, and a cold first call
	// of a microsecond kernel measures page faults and caches, not the code.
	for _, bench := range []struct {
		name    string
		m, n, k int
		tn      bool
	}{
		{"tail/4x26x64", 4, 26, 64, false},
		{"tail/3x128x96", 3, 128, 96, false},
		{"tn/26x64x16", 26, 64, 16, true},
	} {
		A, B2 := newM(bench.m, bench.k), newM(bench.k, bench.n)
		kind := mat.Gemm
		if bench.tn {
			A, kind = newM(bench.k, bench.m), mat.GemmTN
		}
		C := mat.NewMatrix(bench.m, bench.n)
		b.Run(bench.name, func(b *testing.B) {
			kind(C, A, B2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				C.Zero()
				kind(C, A, B2)
			}
		})
	}
	// PackNT over the layers' out×in weight shapes: the emnist network
	// (24 → 128 → 96 → 64 → 26) plus the 100-class cifar100 head.
	for _, sh := range [][2]int{{128, 24}, {96, 128}, {64, 96}, {26, 64}, {100, 64}} {
		W := newM(sh[0], sh[1])
		var panel mat.Matrix
		b.Run("packnt/"+itoa(sh[0])+"x"+itoa(sh[1]), func(b *testing.B) {
			mat.PackNT(&panel, W)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.PackNT(&panel, W)
			}
		})
	}
}

// BenchmarkForwardBatch pins the tentpole win at its source: one batched
// forward pass over an inference chunk versus the same samples pushed through
// the per-sample path one at a time.
func BenchmarkForwardBatch(b *testing.B) {
	rng := mat.NewRNG(10)
	net, err := nn.Build(nn.SimResNet110, 48, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = rng.NormVec(make([]float64, 48), 0, 1)
	}
	b.Run("persample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, x := range xs {
				net.Evaluate(x)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		var s nn.BatchScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.ForwardBatch(&s, xs)
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
