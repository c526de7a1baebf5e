package exp

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"dsarp/internal/core"
)

// CSVWritable is implemented by experiment results that can export their
// data series for external plotting.
type CSVWritable interface {
	CSV() (header []string, rows [][]string)
}

// MultiCSV is implemented by bundled results (Fig12Set) whose panels
// export to separate CSV files.
type MultiCSV interface {
	CSVParts() []CSVWritable
}

// WriteCSV writes a result's data to dir/name.csv.
func WriteCSV(dir, name string, r CSVWritable) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header, rows := r.CSV()
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// CSV implements CSVWritable for the tRFCab trend (Fig. 5).
func (f Fig5Result) CSV() ([]string, [][]string) {
	rows := make([][]string, 0, len(f.Points))
	for _, p := range f.Points {
		rows = append(rows, []string{ftoa(p.DensityGb), ftoa(p.Projection1), ftoa(p.Projection2)})
	}
	return []string{"density_gb", "projection1_ns", "projection2_ns"}, rows
}

// CSV implements CSVWritable for the REFab loss breakdown (Fig. 6).
func (f Fig6Result) CSV() ([]string, [][]string) {
	header := []string{"density"}
	for _, c := range f.Categories {
		header = append(header, fmt.Sprintf("cat%d_loss_pct", c))
	}
	header = append(header, "gmean_loss_pct")
	var rows [][]string
	for _, r := range f.Rows {
		row := []string{r.Density.String()}
		for _, c := range f.Categories {
			row = append(row, ftoa(r.ByCategory[c]))
		}
		row = append(row, ftoa(r.Overall))
		rows = append(rows, row)
	}
	return header, rows
}

// CSV implements CSVWritable for the REFab/REFpb comparison (Fig. 7).
func (f Fig7Result) CSV() ([]string, [][]string) {
	var rows [][]string
	for i, d := range f.Densities {
		rows = append(rows, []string{d.String(), ftoa(f.LossAB[i]), ftoa(f.LossPB[i])})
	}
	return []string{"density", "refab_loss_pct", "refpb_loss_pct"}, rows
}

// CSV implements CSVWritable for the sorted curves (Fig. 12).
func (f Fig12Result) CSV() ([]string, [][]string) {
	header := []string{"workload"}
	for _, k := range Fig12Mechanisms() {
		header = append(header, k.String()+"_norm_ws")
	}
	var rows [][]string
	for _, c := range f.Curves {
		row := []string{c.Workload}
		for _, k := range Fig12Mechanisms() {
			row = append(row, ftoa(c.Norm[k]))
		}
		rows = append(rows, row)
	}
	return header, rows
}

// CSV implements CSVWritable for the all-mechanism averages (Fig. 13).
func (f Fig13Result) CSV() ([]string, [][]string) {
	return kindSeriesCSV(f.Densities, Fig13Mechanisms(), f.Improve, "improve_pct")
}

// CSV implements CSVWritable for energy per access (Fig. 14).
func (f Fig14Result) CSV() ([]string, [][]string) {
	return kindSeriesCSV(f.Densities, Fig14Mechanisms(), f.EPA, "epa_nj")
}

// CSV implements CSVWritable for normalized WS (Fig. 16, the pausing
// extension).
func (f NormWSResult) CSV() ([]string, [][]string) {
	return kindSeriesCSV(f.Densities, f.Mechanisms, f.Norm, "norm_ws")
}

func kindSeriesCSV[D fmt.Stringer](densities []D, kinds []core.Kind, series map[core.Kind][]float64, unit string) ([]string, [][]string) {
	header := []string{"mechanism"}
	for _, d := range densities {
		header = append(header, d.String()+"_"+unit)
	}
	var rows [][]string
	for _, k := range kinds {
		row := []string{k.String()}
		for i := range densities {
			row = append(row, ftoa(series[k][i]))
		}
		rows = append(rows, row)
	}
	return header, rows
}

// CSV implements CSVWritable for Table 2.
func (t Table2Result) CSV() ([]string, [][]string) {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{r.Density.String(), r.Mechanism.String(),
			ftoa(r.MaxPB), ftoa(r.MaxAB), ftoa(r.GmeanPB), ftoa(r.GmeanAB)})
	}
	return []string{"density", "mechanism", "max_vs_pb_pct", "max_vs_ab_pct",
		"gmean_vs_pb_pct", "gmean_vs_ab_pct"}, rows
}

// CSV implements CSVWritable for Table 4.
func (t Table4Result) CSV() ([]string, [][]string) {
	var rows [][]string
	for i, f := range t.TFAW {
		rows = append(rows, []string{strconv.Itoa(f), ftoa(t.Improve[i])})
	}
	return []string{"tfaw_cycles", "sarppb_improve_pct"}, rows
}

// CSV implements CSVWritable for Table 5.
func (t Table5Result) CSV() ([]string, [][]string) {
	var rows [][]string
	for i, s := range t.Subarrays {
		rows = append(rows, []string{strconv.Itoa(s), ftoa(t.Improve[i])})
	}
	return []string{"subarrays_per_bank", "sarppb_improve_pct"}, rows
}
