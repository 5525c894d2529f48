// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four TPC-H workloads against the platform through its public API,
// checks every answer against an independent oracle, and prints the
// workload's end-to-end metrics (--trace 0) or per-layer metrics from a
// separate traced run (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload olap --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1              # every workload
//	bash perfbench/run.sh --workload olap --steady 10          # steadiness report
//	bash perfbench/run.sh --compare a.json,b.json              # side by side
//
// See perfbench/README.md for the workloads, metrics and layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one workload run, set-up and checks included.
const runTimeout = 160 * time.Second

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload name, or \"all\": "+workloadNames())
	seed := fl.Int64("seed", 1, "input seed: the same seed gives the same data, order and writes")
	seconds := fl.Int("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fl.String("out", ".bench_build", "directory for scratch data, traces and result files")
	steady := fl.Int("steady", 0, "run each selected workload this many times on consecutive seeds and print the steadiness report")
	compare := fl.String("compare", "", "two result files, comma-separated, to print side by side")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return compareResults(*compare, stdout, stderr)
	}
	var sel []spec
	if *workload == "all" {
		sel = specs
	} else if sp, ok := specByName(*workload); ok {
		sel = []spec{sp}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (have %s, all)\n", *workload, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if *steady > 0 {
		return steadiness(sel, *seed, *seconds, *steady, *out, stdout, stderr)
	}
	source, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: hashing sources: %v\n", err)
		return 1
	}
	scratch := filepath.Join(*out, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// An interrupt cancels the run, so its scratch data is still removed.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, time.Duration(len(sel))*runTimeout)
	defer cancel()
	var lines []resultLine
	for _, sp := range sel {
		rep, err := execute(ctx, sp, *seed, *seconds, *trace == 1, scratch)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
			return 1
		}
		prov := stamp(sp, *seed, *seconds, *trace, source)
		if err := emit(rep, prov, *out, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
			return 1
		}
		prefix := ""
		if len(sel) > 1 {
			prefix = sp.name + "."
		}
		lines = append(lines, rep.line(prefix))
	}
	if err := writeLine(stdout, merge(lines)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// merge folds the result lines of several workloads into one.
func merge(lines []resultLine) resultLine {
	if len(lines) == 1 {
		return lines[0]
	}
	out := resultLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, l := range lines {
		out.Correct = out.Correct && l.Correct
		out.Attempted += l.Attempted
		out.Failed += l.Failed
		for k, v := range l.Metrics {
			out.Metrics[k] = v
		}
	}
	return out
}

// savedMetric is a metric as kept in a result file.
type savedMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// savedResult is the result file of one run.
type savedResult struct {
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	Metrics    map[string]savedMetric `json:"metrics"`
}

// emit prints a run's metrics and provenance, and writes its result file
// and, for a traced run, its Chrome trace and layer table.
func emit(rep *report, prov provenance, out string, stdout io.Writer) error {
	rep.print(stdout)
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", pb)
	base := fmt.Sprintf("%s-seed%d-trace%d", rep.spec.name, rep.seed, prov.Trace)
	if rep.traced {
		writeLayerTable(stdout, rep.spec.name, rep.layers)
		dir := filepath.Join(out, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, base+".json")
		if err := writeChromeTrace(path, rep.tracer, rep.layers); err != nil {
			return err
		}
		var tbl strings.Builder
		writeLayerTable(&tbl, rep.spec.name, rep.layers)
		if err := os.WriteFile(filepath.Join(dir, base+".txt"), []byte(tbl.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chrome trace (open in Perfetto): %s\n", path)
	}
	res := savedResult{Provenance: prov, Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Errors: rep.errors, Metrics: map[string]savedMetric{}}
	for _, m := range rep.metrics {
		res.Metrics[m.name] = savedMetric{Value: m.value, Unit: m.unit, Samples: m.n, Note: m.note}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, base+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result file: %s\n", path)
	return nil
}
