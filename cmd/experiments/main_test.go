package main

import (
	"strings"
	"testing"

	"dsarp/internal/exp"
)

// TestSelectExperiments: -run names resolve in registry order, "all"
// selects the whole registry, and a misspelled name is an error naming it
// rather than a silently shorter run.
func TestSelectExperiments(t *testing.T) {
	got, err := selectExperiments(" Fig13,fig5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "fig5" || got[1].Name != "fig13" {
		t.Errorf("selected %v, want [fig5 fig13] in registry order", got)
	}
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(exp.Experiments()) {
		t.Errorf("all selected %d experiments (err %v), want %d", len(all), err, len(exp.Experiments()))
	}
	if _, err := selectExperiments("fig5,fgi13"); err == nil || !strings.Contains(err.Error(), `"fgi13"`) {
		t.Errorf("misspelled name: err = %v, want an error naming \"fgi13\"", err)
	}
}
