package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WritePredCSV renders prediction rows as CSV with one row per
// (configuration) measurement.
func WritePredCSV(w io.Writer, rows []PredRow) error {
	return writeCSV(w, []string{"config", "seq_in", "seq_out", "rmse", "mae", "mr", "tt_sec"}, rows,
		func(r PredRow) []string {
			return []string{r.Label, strconv.Itoa(r.SeqIn), strconv.Itoa(r.SeqOut),
				fmtF(r.RMSE), fmtF(r.MAE), fmtF(r.MR), fmtF(r.TTSec)}
		})
}

// WriteAssignCSV renders assignment rows as CSV with one row per
// (sweep value, algorithm) measurement.
func WriteAssignCSV(w io.Writer, rows []AssignRow) error {
	return writeCSV(w, []string{"sweep", "x", "algo", "completion", "rejection", "cost_km", "time_sec"}, rows,
		func(r AssignRow) []string {
			return []string{r.Sweep, fmtF(r.X), r.Algo,
				fmtF(r.Completion), fmtF(r.Rejection), fmtF(r.CostKM), fmtF(r.TimeSec)}
		})
}

// WriteAblationCSV renders ablation rows as CSV with one row per
// (design choice, variant); a metric the variant does not measure is 0, as
// in AblationRow.
func WriteAblationCSV(w io.Writer, rows []AblationRow) error {
	return writeCSV(w, []string{"group", "variant", "completion", "rejection", "cost_km", "mr"}, rows,
		func(r AblationRow) []string {
			return []string{r.Group, r.Variant,
				fmtF(r.Completion), fmtF(r.Rejection), fmtF(r.CostKM), fmtF(r.MR)}
		})
}

// writeCSV writes the header, then one record per row.
func writeCSV[R any](w io.Writer, header []string, rows []R, record func(R) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(record(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
