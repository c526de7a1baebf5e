package exp

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"dsarp/internal/core"
)

func TestWriteCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(tinyOpts())
	f := runAs[Fig5Result](t, r, "fig5")
	if err := WriteCSV(dir, "fig5", f); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(filepath.Join(dir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	rows, err := csv.NewReader(file).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(f.Points)+1 {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(f.Points)+1)
	}
	if rows[0][0] != "density_gb" {
		t.Errorf("header = %v", rows[0])
	}
}

func TestCSVShapesConsistent(t *testing.T) {
	// Every exporter must produce rows matching its header width.
	r := NewRunner(tinyOpts())
	exports := map[string]CSVWritable{
		"fig5":   runAs[Fig5Result](t, r, "fig5"),
		"fig7":   runAs[Fig7Result](t, r, "fig7"),
		"fig12":  runAs[Fig12Set](t, r, "fig12").Figs[0],
		"table2": runAs[Table2Result](t, r, "table2"),
		"table5": runAs[Table5Result](t, r, "table5"),
	}
	for name, e := range exports {
		header, rows := e.CSV()
		if len(header) == 0 || len(rows) == 0 {
			t.Errorf("%s: empty export", name)
			continue
		}
		for i, row := range rows {
			if len(row) != len(header) {
				t.Errorf("%s row %d: %d fields, header has %d", name, i, len(row), len(header))
			}
		}
	}
}

func TestPausingComparisonShape(t *testing.T) {
	r := NewRunner(tinyOpts())
	p := runAs[PausingResult](t, r, "pausing")
	last := len(p.Densities) - 1
	if p.Norm[core.KindREFab][last] != 1.0 {
		t.Fatalf("REFab must normalize to 1")
	}
	if p.Norm[core.KindPause][last] <= 1.0 {
		t.Errorf("pausing should beat REFab at 32Gb, got %.3f", p.Norm[core.KindPause][last])
	}
	if p.Norm[core.KindDSARP][last] <= p.Norm[core.KindPause][last] {
		t.Errorf("DSARP (%.3f) should beat pausing (%.3f)",
			p.Norm[core.KindDSARP][last], p.Norm[core.KindPause][last])
	}
}
