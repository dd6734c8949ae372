// Command bench is the repo's end-to-end, layer-attributed benchmark:
// it builds the gate → shard → driver → VM → kernel service in one
// process, runs four closed-loop workloads against it, checks every
// output, and reports six end-to-end metrics per workload plus, from a
// separate traced pass, the per-layer numbers. See README.md.
//
//	bash bench/run.sh                       all four workloads, then the traced pass once
//	bash bench/run.sh -workload serve_cold -seed 7 -seconds 24 -trace 0
//	bash bench/run.sh -list                 every metric with unit, direction and pairing
//	bash bench/run.sh -agree                two sets of three runs must agree within the per-workload bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken at package initialisation, before main: set-up
// time runs from here to the first timed op.
var processStart = time.Now()

// setupProbes is how many further processes repeat the set-up, so that
// setup_s is the median of setupProbes+1 set-ups: a single one is at
// the mercy of whatever the host did in those two seconds.
const setupProbes = 8

// result is one workload's entry in result.json.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Disturbed bool               `json:"disturbed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Setups    []float64          `json:"setup_samples_s"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Skipped   []string           `json:"skipped,omitempty"`
	// Separation is the traced pass's check that the workloads stress
	// different layers (README, "Does the trace agree").
	Separation map[string]float64   `json:"separation,omitempty"`
	ParGrid    []gridRow            `json:"par_grid,omitempty"`
	Classes    map[string]classStat `json:"classes"`
	Slices     []sliceStat          `json:"slices"`
}

func main() {
	workload := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all four")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and request streams")
	seconds := flag.Int("seconds", 24, "length of the timed window in one-second slices (smaller for smoke runs)")
	trace := flag.Int("trace", 1, "1: follow the timed window with the traced pass and end with the per-layer metrics; 0: end with the end-to-end metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	list := flag.Bool("list", false, "print every metric's name, unit, direction and predicted effect, and exit")
	agree := flag.Bool("agree", false, "run two sets of three runs and fail if their medians differ by more than the bounds")
	setupOnly := flag.Bool("setup-only", false, "set one workload up, print the seconds it took, and exit (setup_s probe)")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out dir] | -list | -agree")
		os.Exit(2)
	}
	switch {
	case *list:
		printList()
		return
	case *agree:
		os.Exit(runAgree(*seed, *seconds, *out))
	case *setupOnly:
		e := newEnv(*seed)
		_, err := e.workload(*workload)
		took := time.Since(processStart)
		e.close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(took.Seconds())
		return
	}

	// A run that fails must not leave an earlier run's result behind.
	if err := os.Remove(filepath.Join(*out, "result.json")); err != nil && !os.IsNotExist(err) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	results := map[string]*result{}
	ok := true
	if *workload != "" {
		res, err := runOne(*workload, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		results[*workload], ok = res, res.Correct
	} else {
		// Set-up is per process (grammar tables, caches), so each workload
		// runs in a process of its own. The traced pass measures the same
		// rows whichever workload was timed, so only the last child makes
		// it; the others report the rows of their own window.
		for k, name := range workloadNames {
			childTrace := 0
			if k == len(workloadNames)-1 {
				childTrace = *trace
			}
			res, err := runChild(name, *seed, *seconds, childTrace, *out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			results[name] = res
			ok = ok && res.Correct
		}
	}
	if err := writeJSON(filepath.Join(*out, "result.json"), results); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *workload != "" {
		printFinal(results[*workload], *trace == 1)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: some ops failed; see result.json")
		os.Exit(1)
	}
}

// runOne sets the workload up, repeats the set-up in setupProbes
// further processes, runs the untraced timed window, optionally the
// traced pass, and prints every metric by name with its unit.
func runOne(name string, seed int64, seconds int, traced bool, out string) (*result, error) {
	e := newEnv(seed)
	defer e.close()
	w, err := e.workload(name)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	for k := 0; k < setupProbes; k++ {
		s, err := probeSetup(name, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	win := runWindow(w, seconds)
	win.EndToEnd["setup_s"] = median(setups)
	res := &result{
		Workload: name, Seed: seed, Seconds: seconds,
		Correct: win.Failed == 0, Attempted: win.Attempted, Failed: win.Failed, FirstErr: win.FirstErr,
		Disturbed: win.Disturbed, EndToEnd: win.EndToEnd, Setups: setups,
		Classes: win.Classes, Slices: win.Slices,
	}
	kept := 0
	for _, s := range win.Slices {
		if s.Kept {
			kept++
		}
	}
	fmt.Printf("== %s  seed %d  %d slices, %d kept  disturbed=%v\n", name, seed, seconds, kept, win.Disturbed)
	for _, m := range endToEnd {
		fmt.Printf("%-46s %14.6g %s\n", m.Name, res.EndToEnd[m.Name], m.Unit)
	}
	res.PerLayer = windowRows(win)
	if traced {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := tracedPass(e, w, win, res, filepath.Join(out, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	}
	for _, m := range perLayer(nproc) {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("%-46s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, s := range res.Skipped {
		fmt.Printf("%-46s %14s\n", s, "skipped")
	}
	keys := make([]string, 0, len(res.Separation))
	for k := range res.Separation {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("separation: %-34s %14.4f\n", k, res.Separation[k])
	}
	if win.Failed > 0 {
		fmt.Printf("FAILED %d of %d ops; first: %s\n", win.Failed, win.Attempted, win.FirstErr)
	}
	return res, nil
}

// self re-runs this binary with args; its standard output is returned,
// its standard error passed through.
func self(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

func probeSetup(name string, seed int64) (float64, error) {
	raw, err := self("-setup-only", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
}

// runChild runs one workload in a process of its own, relays what it
// printed (but the driver's JSON line), and reads its result back from
// the result.json it wrote. The child's directory is emptied first and
// the result must carry this call's seed and window, so a child that
// dies early is an error and never an earlier run's numbers. A child
// whose ops failed exits non-zero too, but after writing its result.
func runChild(name string, seed int64, seconds, trace int, out string) (*result, error) {
	dir := filepath.Join(out, "run-"+name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	raw, runErr := self("-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", dir)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
		lines = lines[:len(lines)-1]
	}
	if text := strings.Join(lines, "\n"); text != "" {
		fmt.Println(text)
	}
	res, err := readResult(filepath.Join(dir, "result.json"), name, seed, seconds)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: child: %w", name, runErr)
		}
		return nil, err
	}
	if runErr != nil && res.Correct {
		return nil, fmt.Errorf("%s: child reported no failed op, yet: %w", name, runErr)
	}
	return res, nil
}

// readResult reads one workload's entry from a result.json and checks
// that it belongs to the run that asked for it.
func readResult(path, name string, seed int64, seconds int) (*result, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var results map[string]*result
	if err := json.Unmarshal(doc, &results); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", name, path, err)
	}
	res := results[name]
	if res == nil || res.Workload != name || res.Seed != seed || res.Seconds != seconds {
		return nil, fmt.Errorf("%s: %s is not the result of this run (seed %d, %d slices)", name, path, seed, seconds)
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printFinal prints the one-line JSON object the benchmark driver
// reads: the end-to-end metrics, or after a traced pass the per-layer
// metrics.
func printFinal(res *result, traced bool) {
	metrics := map[string]metricValue{}
	if traced {
		for _, m := range perLayer(nproc) {
			if v, ok := res.PerLayer[m.Name]; ok {
				metrics[m.Name] = metricValue{v, m.Unit}
			}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{res.EndToEnd[m.Name], m.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
