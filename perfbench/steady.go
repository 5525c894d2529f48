package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bounds reads each end-to-end metric's bound from BENCHMARK.json in the
// working directory (empty when the file is absent).
func bounds() map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var f benchmarkFile
	if json.Unmarshal(b, &f) != nil {
		return out
	}
	for _, m := range f.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// steadiness runs each workload n times, untraced, on seeds seed..seed+n-1,
// each in its own process, and prints every end-to-end metric's median,
// quartiles and spread ((Q3-Q1)/median, as statistics.quantiles(n=4)
// gives them) against its bound. A spread under a third of the bound is
// "steady"; under the bound "within bound"; otherwise "UNSTEADY".
func steadiness(sel []spec, seed int64, seconds, n int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	bnd := bounds()
	status := 0
	for _, sp := range sel {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			line, err := runChild(exe, sp.name, s, seconds, out)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", sp.name, s, err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: incorrect (%d of %d failed)\n", sp.name, s, line.Failed, line.Attempted)
				status = 1
			}
			for k, m := range line.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(stdout, "  %s seed %d done\n", sp.name, s)
		}
		rows := steadyTable(sp.name, n, values, units, bnd, stdout)
		b, err := json.MarshalIndent(rows, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(out, "steady-"+sp.name+".json"), append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return status
}

// steadyRow is one metric of the steadiness report.
type steadyRow struct {
	Metric  string    `json:"metric"`
	Unit    string    `json:"unit"`
	Runs    int       `json:"runs"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"`
	Bound   float64   `json:"bound"`
	Verdict string    `json:"verdict"`
	Values  []float64 `json:"values"`
}

func steadyTable(workload string, n int, values map[string][]float64, units map[string]string, bnd map[string]float64, w io.Writer) []steadyRow {
	fmt.Fprintf(w, "steadiness — %s, %d runs on consecutive seeds\n", workload, n)
	fmt.Fprintf(w, "  %-22s %12s %12s %12s %8s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	var rows []steadyRow
	for _, k := range sortedKeys(values) {
		v := values[k]
		q1, q2, q3 := quartiles(v)
		spread := ratio(q3-q1, q2)
		b, hasBound := bnd[k]
		verdict := "no bound"
		switch {
		case !hasBound:
		case k == "setup_s":
			verdict = "spread not gated; medians compared"
		case spread < b/3:
			verdict = "steady (< bound/3)"
		case spread <= b:
			verdict = "within bound"
		default:
			verdict = "UNSTEADY"
		}
		fmt.Fprintf(w, "  %-22s %12.4f %12.4f %12.4f %7.2f%% %6.0f%%  %s\n", k, q1, q2, q3, 100*spread, 100*b, verdict)
		rows = append(rows, steadyRow{Metric: k, Unit: units[k], Runs: len(v), Median: q2, Q1: q1, Q3: q3,
			Spread: spread, Bound: b, Verdict: verdict, Values: v})
	}
	return rows
}

// runChild runs one untraced workload in a child process and parses its
// result line.
func runChild(exe, workload string, seed int64, seconds int, out string) (resultLine, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout+20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var l resultLine
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		return resultLine{}, fmt.Errorf("parsing result line: %w", err)
	}
	return l, nil
}

// compareResults prints two result files side by side, refusing when their
// provenance differs in anything but the code identity.
func compareResults(arg string, stdout, stderr io.Writer) int {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: --compare takes two result files, comma-separated")
		return 2
	}
	var res [2]savedResult
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &res[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	if bad := res[0].Provenance.mismatches(res[1].Provenance); len(bad) > 0 {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: provenance differs in %s\n", strings.Join(bad, ", "))
		return 3
	}
	fmt.Fprintf(stdout, "%s seed %d: A = %s (%s)\n%*s  B = %s (%s)\n", res[0].Provenance.Workload, res[0].Provenance.Seed,
		paths[0], res[0].Provenance.GitCommit, len(res[0].Provenance.Workload)+8, "", paths[1], res[1].Provenance.GitCommit)
	for _, k := range sortedKeys(res[0].Metrics) {
		a, b := res[0].Metrics[k], res[1].Metrics[k]
		fmt.Fprintf(stdout, "  %-40s %14.4f %14.4f %-14s %+8.2f%%\n", k, a.Value, b.Value, a.Unit, 100*ratio(b.Value-a.Value, a.Value))
	}
	return 0
}
