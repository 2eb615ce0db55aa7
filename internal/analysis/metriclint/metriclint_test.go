package metriclint_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/metriclint"
)

func TestMetricLint(t *testing.T) {
	results := analysistest.Run(t, "testdata", metriclint.Analyzer, "metrics", "metrics2")
	if results[0].Packages != 2 {
		t.Errorf("expected 2 packages analyzed, got %d", results[0].Packages)
	}
	if n := len(results[0].Findings); n != 7 {
		t.Errorf("expected 7 findings, got %d", n)
	}
}

// TestMetricLintExpvar covers raw expvar registrations: the same name
// rules, with uniqueness checked across packages.
func TestMetricLintExpvar(t *testing.T) {
	results := analysistest.Run(t, "testdata", metriclint.Analyzer, "vars", "vars2")
	if results[0].Packages != 2 {
		t.Errorf("expected 2 packages analyzed, got %d", results[0].Packages)
	}
	if n := len(results[0].Findings); n != 5 {
		t.Errorf("expected 5 findings, got %d", n)
	}
}
