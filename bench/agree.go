package main

import (
	"fmt"
	"path/filepath"
	"time"
)

const (
	agreeSets    = 2
	agreeRuns    = 3
	agreeRetries = 2                // re-runs allowed per disturbed run
	agreePause   = 20 * time.Second // before a re-run: steal comes in spells of minutes
)

// runUndisturbed runs one workload in a child and, while the run comes
// back disturbed, runs it again, at most agreeRetries times; it also
// returns how many re-runs that took. Every run of every set uses the
// same seed: agreement is about the same code on the same inputs.
func runUndisturbed(name string, seed int64, seconds int, dir string) (res *result, retries int, err error) {
	for {
		if res, err = runChild(name, seed, seconds, 0, dir); err != nil {
			return nil, retries, err
		}
		if !res.Disturbed || retries == agreeRetries {
			return res, retries, nil
		}
		retries++
		time.Sleep(agreePause)
	}
}

// runAgree runs the whole benchmark as two sets of three runs, takes
// each set's median per metric and workload, prints the table, and
// returns 1 if any pair of medians differs by more than that workload's
// bound for the metric (0 otherwise). The sets take turns, a run of
// one straight after the same workload's run of the other, so that a
// host that drifts from minute to minute drifts under both. A disturbed
// run is re-run, at most twice.
func runAgree(seed int64, seconds int, out string) int {
	type cell struct{ workload, metric string }
	values := [agreeSets]map[cell][]float64{}
	for set := range values {
		values[set] = map[cell][]float64{}
	}
	retries := 0
	for run := 0; run < agreeRuns; run++ {
		for _, name := range workloadNames {
			for set := range values {
				res, tries, err := runUndisturbed(name, seed, seconds, filepath.Join(out, fmt.Sprintf("agree-%d-%d", set, run)))
				retries += tries
				if err != nil {
					fmt.Println("bench:", err)
					return 1
				}
				if !res.Correct {
					fmt.Printf("%s: %d of %d ops failed: %s\n", name, res.Failed, res.Attempted, res.FirstErr)
					return 1
				}
				for _, m := range endToEnd {
					c := cell{name, m.Name}
					values[set][c] = append(values[set][c], res.EndToEnd[m.Name])
				}
			}
		}
	}
	fmt.Printf("\n%-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1 median", "set 2 median", "differ", "bound")
	code := 0
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			a, b := median(values[0][cell{name, m.Name}]), median(values[1][cell{name, m.Name}])
			// As a share of the first set's median, the way a bound is a
			// share of the parent's.
			differ := 0.0
			if a != b {
				differ = (max(a, b) - min(a, b)) / a
			}
			bound := workloadBound[name][m.Name]
			verdict := ""
			if differ > bound {
				verdict, code = "  DISAGREE", 1
			}
			fmt.Printf("%-18s %-16s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", name, m.Name, a, b, 100*differ, 100*bound, verdict)
		}
	}
	fmt.Printf("disturbed runs re-run: %d\n", retries)
	return code
}
