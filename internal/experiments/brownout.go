package experiments

import (
	"enld/internal/baselines"
	"enld/internal/core"
	"enld/internal/lake"
)

// BrownoutLadder builds the lake service's brownout degradation ladder from a
// prepared workbench: full ENLD with the workbench's config, then the Default
// baseline as the last-resort fallback rung. Both rungs share the workbench
// platform's general model, so switching tiers costs no retraining.
func BrownoutLadder(wb *Workbench) []lake.TierDetector {
	return []lake.TierDetector{
		{Name: lake.TierFull, Detector: &core.ENLD{Platform: wb.Platform, Config: wb.ENLDCfg}},
		{Name: lake.TierFallback, Detector: baselines.Default{Model: wb.Platform.Model}},
	}
}
