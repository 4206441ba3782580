package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// verdict judges value b against baseline a for a metric where better
// is "lower" or "higher": worse when b is worse than a by more than
// bound (relative to a), better when it gains by more than bound, else
// ok. change is the signed relative change (b-a)/a.
func verdict(a, b, bound float64, better string) (v string, change float64) {
	if a == 0 {
		if b == 0 {
			return "ok", 0
		}
		change = 1
	} else {
		change = (b - a) / a
	}
	worsening := change
	if better == "higher" {
		worsening = -change
	}
	switch {
	case worsening > bound:
		return "worse", change
	case worsening < -bound:
		return "better", change
	}
	return "ok", change
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(b, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, for every (end-to-end metric, workload) pair in
// both files, the two values, the relative change, the bound and the
// verdict; it fails if any pair is worse. failed_ratio has bound 0: any
// rise is a regression.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	specs := append(append([]metricSpec(nil), endToEnd...), metricSpec{Name: "failed_ratio", Unit: "ratio", Better: "lower"})
	worse, pairs := 0, 0
	fmt.Fprintf(out, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, s := range specs {
			va, okA := wa.EndToEnd[s.Name]
			vb, okB := wb.EndToEnd[s.Name]
			if !okA || !okB {
				continue
			}
			pairs++
			v, change := verdict(va.Value, vb.Value, s.Bound, s.Better)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-16s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				w.Name, s.Name, va.Value, vb.Value, 100*change, 100*s.Bound, v)
		}
	}
	if pairs == 0 {
		return errors.New("the two files share no (metric, workload) pair")
	}
	if worse > 0 {
		return fmt.Errorf("%d of %d pairs are worse than the bound allows", worse, pairs)
	}
	return nil
}
