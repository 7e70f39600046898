package experiments

import (
	"slices"
	"testing"

	"enld/internal/core"
)

func TestRunExt1LossTracking(t *testing.T) {
	fig, err := RunExt1(quickCfg(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 8 { // 5 standard methods + losstrack + incv + coteaching
		t.Fatalf("%d rows", len(fig.Rows))
	}
	lt := fig.Score("losstrack", 0.2)
	cv := fig.Score("incv", 0.2)
	ct := fig.Score("coteaching", 0.2)
	enld := fig.Score("enld", 0.2)
	t.Logf("losstrack=%.4f incv=%.4f coteaching=%.4f enld=%.4f", lt, cv, ct, enld)
	if lt < 0 || cv < 0 || ct < 0 {
		t.Fatal("extension method missing")
	}
	// §I's claim: loss tracking on incremental data does not beat ENLD.
	if lt > enld+0.05 {
		t.Errorf("losstrack %.4f unexpectedly above ENLD %.4f", lt, enld)
	}
}

func TestRunExt2SymmetricNoise(t *testing.T) {
	fig, err := RunExt2(quickCfg(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 5 {
		t.Fatalf("%d rows", len(fig.Rows))
	}
	enld := fig.Score("enld", 0.2)
	def := fig.Score("default", 0.2)
	t.Logf("symmetric noise: enld=%.4f default=%.4f topofilter=%.4f",
		enld, def, fig.Score("topofilter", 0.2))
	if enld <= 0 {
		t.Fatal("ENLD failed under symmetric noise")
	}
	// Symmetric noise is the easier regime; methods should do at least
	// reasonably well.
	if enld < 0.5 {
		t.Errorf("ENLD F1 %.4f suspiciously low under symmetric noise", enld)
	}
}

func TestRunExt3IndexAblation(t *testing.T) {
	cfg := quickCfg(32)
	cfg.Shards = 2
	res, err := RunExt3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 scales × 2 index kinds
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Exactness: at each scale both index kinds must detect identically
	// (same F1), since both return exact nearest neighbours.
	for i := 0; i < len(res.Rows); i += 2 {
		kd, br := res.Rows[i], res.Rows[i+1]
		if kd.Index != "kdtree" || br.Index != "brute" {
			t.Fatalf("row ordering: %+v %+v", kd, br)
		}
		if diff := kd.F1.Mean - br.F1.Mean; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("scale %.2f: kdtree F1 %.6f != brute F1 %.6f",
				kd.DataScale, kd.F1.Mean, br.F1.Mean)
		}
	}
	// Pool size grows with scale.
	if res.Rows[0].PoolSize >= res.Rows[4].PoolSize {
		t.Errorf("pool did not grow with scale: %d -> %d",
			res.Rows[0].PoolSize, res.Rows[4].PoolSize)
	}
}

func TestUnknownNoiseKindRejected(t *testing.T) {
	cfg := quickCfg(40)
	cfg.Noise = "bogus"
	if _, err := BuildWorkbench("emnist", 0.2, cfg); err == nil {
		t.Fatal("unknown noise kind accepted")
	}
}

// TestMethodNamesMatchAllMethods: the static list callers check a method
// name against before any setup names exactly the AllMethods detectors, in
// order.
func TestMethodNamesMatchAllMethods(t *testing.T) {
	var got []string
	for _, d := range AllMethods(&Workbench{Platform: &core.Platform{}}, 1) {
		got = append(got, d.Name())
	}
	if !slices.Equal(got, MethodNames) {
		t.Fatalf("AllMethods names %v, MethodNames %v", got, MethodNames)
	}
}
