// Command rcptbench is the rcpt benchmark: it runs one named workload
// against the study pipeline and the serving layer, checks every output
// against an in-process reference, and prints the workload's metrics.
//
//	rcptbench -workload study-cold -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 they are the per-layer ones, and a
// Chrome trace-event file of the run is written under -out. Lines
// before it name every metric of the workload with its unit. The exit
// code is 1 when any output failed its correctness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// deadline bounds one run, set-up and reference checks included.
const deadline = 170 * time.Second

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"study-cold", runStudyCold},
	{"serve-read", runServeRead},
	{"whatif", runWhatIf},
	{"ring-cold", runRingCold},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: study-cold, serve-read, whatif or ring-cold")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 22, "measuring budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the trace-event file")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "rcptbench: need -workload (study-cold|serve-read|whatif|ring-cold), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if err := checkDefs(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		fmt.Fprintf(os.Stderr, "rcptbench: %v\n", err)
		return 2
	}
	// Every run must end well inside three minutes, however slow the
	// program under test has become: past the deadline the run is
	// abandoned without a result.
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "rcptbench: %s: no result after %v\n", w.name, deadline)
		os.Exit(2)
	})
	defer watchdog.Stop()

	budget := time.Duration(*seconds) * time.Second
	res, lines, err := measure(w, *seed, budget, false, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcptbench: %s: %v\n", w.name, err)
		return 2
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcptbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload once untraced, or, when traced, once
// untraced and once traced on half the budget each (their difference is
// the tracing overhead), and assembles the result.
func measure(w workload, seed uint64, budget time.Duration, tiny, traced bool, outDir string) (result, []string, error) {
	res := result{Metrics: map[string]metricValue{}}
	if !traced {
		e := &env{seed: seed, budget: budget, tiny: tiny}
		o, err := w.run(e)
		if err != nil {
			return res, nil, err
		}
		m := o.e2e()
		for _, d := range endToEnd {
			v, ok := m[d.name]
			if !ok || math.IsNaN(v) {
				return res, nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
		lines := append(header(w.name, o), e.lines...)
		for _, d := range endToEnd {
			lines = append(lines, fmt.Sprintf("%-24s %14.6g %s", d.name, m[d.name], d.unit))
		}
		res.Attempted, res.Failed = o.attempted, o.failed
		res.Correct = o.failed == 0 && o.attempted > 0
		return res, lines, nil
	}

	plain := &env{seed: seed, budget: budget / 2, tiny: tiny}
	po, err := w.run(plain)
	if err != nil {
		return res, nil, err
	}
	e := &env{seed: seed, budget: budget / 2, tiny: tiny, tr: newTracer(), layer: map[string]float64{}}
	root := e.tr.start("bench", w.name, 0, 1)
	o, err := w.run(e)
	root.end(nil)
	if err != nil {
		return res, nil, err
	}
	untraced, tracedP50 := median(po.opMS), median(o.opMS)
	e.setLayer("bench.untraced_p50_ms", untraced)
	e.setLayer("bench.traced_p50_ms", tracedP50)
	e.setLayer("bench.trace_overhead_ms", tracedP50-untraced)
	attempted, failed := po.attempted+o.attempted, po.failed+o.failed
	e.setLayer("bench.fail_ratio", float64(failed)/math.Max(1, float64(attempted)))
	e.setLayer("bench.spans", float64(e.tr.count()))
	lines := append(header(w.name, o), e.lines...)
	for _, d := range perLayer {
		v := e.layer[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		lines = append(lines, fmt.Sprintf("%-32s %14.6g %s", d.name, v, d.unit))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, nil, fmt.Errorf("creating %s: %w", outDir, err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	if err := e.tr.write(path); err != nil {
		return res, nil, err
	}
	lines = append(lines, "trace-event file: "+path)
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && attempted > 0
	return res, lines, nil
}

func header(name string, o *outcome) []string {
	lines := []string{fmt.Sprintf("workload %s: %d operations, %d failed", name, o.attempted, o.failed)}
	if o.firstErr != nil {
		lines = append(lines, "first failure: "+strings.ReplaceAll(o.firstErr.Error(), "\n", " "))
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	return append(lines, fmt.Sprintf("%-24s %14.6g %s", "fail_ratio", ratio, "ratio"))
}
