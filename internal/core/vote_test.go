package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"enld/internal/mat"
	"enld/internal/noise"
)

// voteCases is the identity table of the vote pass. hash pins every output
// of DetectFull except the forward-pass count — the noisy set, S_c, pseudo
// labels, every snapshot, the iterations run and the train/update/k-NN
// counters — as measured when every step forwarded all of D. allForwards is
// that run's forward-pass count; forwards is the exact count now that a step
// forwards only the samples whose outcome is still open.
var voteCases = []struct {
	name        string
	cfg         func(*Config)
	missing     bool
	hash        uint64
	allForwards int64
	forwards    int64
}{
	{"default t=5", func(*Config) {}, false, 0x62888b66dde2f048, 6400, 3628},
	{"t=12 autostop", func(c *Config) { c.Iterations, c.AutoStop = 12, true }, false, 0xe6d3892544e201c9, 13120, 6275},
	{"enld-2", func(c *Config) { c.DisableMajorityVoting = true }, false, 0x228df97a0a43275a, 6400, 3356},
	{"enld-3", func(c *Config) { c.DisableCleanMerge = true }, false, 0x19d3af125629e875, 6400, 3619},
	{"missing labels", func(*Config) {}, true, 0x5d9c7a235a9f8843, 6280, 4104},
	{"steps=4", func(c *Config) { c.Steps = 4 }, false, 0x20277514c5aaf24c, 5600, 3419},
	{"steps=6", func(c *Config) { c.Steps = 6 }, false, 0x31db5f7cf909dae5, 7200, 3763},
}

// TestENLDVoteSkipIsOutputIdentical: skipping decided samples in the vote
// pass changes how many rows are forwarded and nothing else.
func TestENLDVoteSkipIsOutputIdentical(t *testing.T) {
	w := newWorkload(t, 0.3, true, 70)
	masked := w.incr.Clone()
	if n, err := noise.MaskMissing(masked, 0.25, mat.NewRNG(61)); err != nil || n == 0 {
		t.Fatalf("masked %d samples: %v", n, err)
	}
	for _, tc := range voteCases {
		cfg := DefaultConfig(62)
		tc.cfg(&cfg)
		d := w.incr
		if tc.missing {
			d = masked
		}
		res, err := (&ENLD{Platform: w.platform, Config: cfg}).DetectFull(d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, fwd := resultHash(res), res.Meter.ForwardPasses
		t.Logf("%s: hash %#x, forward passes %d, %d iterations (%v)", tc.name, got, fwd, res.Iterations, res.Stop)
		if got != tc.hash {
			t.Errorf("%s: output hash %#x, want %#x", tc.name, got, tc.hash)
		}
		if fwd != tc.forwards || fwd >= tc.allForwards {
			t.Errorf("%s: %d forward passes, want %d (below %d)", tc.name, fwd, tc.forwards, tc.allForwards)
		}
	}
}

// resultHash is an FNV-1a digest of every DetectFull output except
// Meter.ForwardPasses and the wall-clock Process time.
func resultHash(res *FullResult) uint64 {
	h := fnv.New64a()
	put := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	ids := func(set map[int]bool) {
		keys := make([]int, 0, len(set))
		for id := range set {
			keys = append(keys, id)
		}
		sort.Ints(keys)
		put(len(keys))
		put(keys...)
	}
	ids(res.Noisy)
	ids(res.SelectedInventory)
	pseudo := make([]int, 0, len(res.PseudoLabels))
	for id := range res.PseudoLabels {
		pseudo = append(pseudo, id)
	}
	sort.Ints(pseudo)
	put(len(pseudo))
	for _, id := range pseudo {
		put(id, res.PseudoLabels[id])
	}
	put(len(res.Snapshots))
	for _, s := range res.Snapshots {
		ids(s.Noisy)
		put(s.AmbiguousCount, s.ContrastiveSize)
	}
	put(res.Iterations)
	m := res.Meter
	put(int(m.TrainSampleVisits), int(m.ParamUpdates), int(m.KNNQueries))
	return h.Sum64()
}
