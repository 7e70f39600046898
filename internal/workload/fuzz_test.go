package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpecValidate hardens the scenario-spec entry point: whatever bytes a
// user hands loadgen as a scenario file, decode + Validate must either accept
// the spec or return an error — never panic. The validators reach deep into
// the config surface (phases, mixes, fault rates, admission, the brownout
// switch, SLO objectives), so the fuzzer is pointed at exactly the path
// LoadSpec runs. Seeds are the committed scenario files — realistic, fully
// populated specs the mutator can corrupt field-by-field — plus handcrafted
// near-miss JSON targeting the newest validation surface.
func FuzzSpecValidate(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no scenario seeds found: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","phases":[{"duration_seconds":-1}]}`))
	f.Add([]byte(`{"name":"x","fault":{"fail_rate":7e308,"slow_latency_ms":-1}}`))
	f.Add([]byte(`{"name":"x","policy":{"queue_depth":-9,"max_queue_wait_ms":1e308}}`))
	f.Add([]byte(`{"name":"x","brownout":true,"policy":{"queue_depth":8}}`))
	f.Add([]byte(`{"name":"x","brownout":true,"policy":{"queue_depth":8,"max_queue_wait_ms":1e-9}}`))
	f.Add([]byte(`{"name":"x","slo":{"max_shed_fraction":-0.5,"min_tier_f1":{"":2}}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Spec
		if err := json.Unmarshal(raw, &s); err != nil {
			return // malformed JSON is the decoder's problem, reported loudly
		}
		// Must not panic; the error (or nil) is the contract.
		err := s.Validate()
		// A spec that validates must also survive the derived conversions the
		// replay path performs before any trace is generated.
		if err == nil {
			if cerr := s.Policy.Admission().Validate(); cerr != nil {
				t.Fatalf("validated spec has unsound admission config: %v", cerr)
			}
			s.Duration()
		}
	})
}
