// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and resilientd from the tree), starts
// a resilientd master/slave pair as separate processes on fresh loopback
// ports, drives them over TCP with an open-loop load generator, checks
// every reply and the final state against a shadow model, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload pbr-steady --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with every request traced and reports the per-layer table.
// README.md in this directory lists the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// buildDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Windows keeps each latency figure's per-window values in the saved
	// result; the printed JSON line leaves it out.
	Windows map[string][]float64 `json:"windows,omitempty"`
}

type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		bin     = flag.String("resilientd", filepath.Join(buildDir, "resilientd"), "resilientd binary built from this tree")
	)
	flag.Parse()
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else if w := lookupWorkload(*name); w != nil {
		wls = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: resilientd binary: %v (run via run.sh)\n", err)
		return 2
	}

	// Reap every daemon on a signal, then exit; normal paths reap too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		reapAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v: daemons stopped\n", s)
		os.Exit(130)
	}()
	defer reapAll()

	gated, err := gatedMetrics(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	commit := sourceCommit()
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range wls {
		prov := provenance{
			Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit,
		}
		r, err := runWorkload(context.Background(), w, runConfig{
			bin: *bin, seed: *seed, seconds: *seconds, trace: *trace == 1,
		})
		reapAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(os.Stdout, prov, r, gated)
		if err := saveResult(prov, r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			if !gated[k] {
				continue
			}
			if len(wls) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// gatedMetrics returns the metric names BENCHMARK.json declares for
// this kind of run: the result's JSON line carries exactly those the
// workload measured. Every other figure is printed in the table and
// kept in the saved result.
func gatedMetrics(trace bool) (map[string]bool, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	out := make(map[string]bool, len(list))
	for _, m := range list {
		out[m.Name] = true
	}
	return out, nil
}

func printTable(w io.Writer, prov provenance, r result, gated map[string]bool) {
	p, _ := json.Marshal(prov)
	fmt.Fprintf(w, "# provenance %s\n", p)
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", prov.Workload, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		note := ""
		if !gated[k] {
			note = "  (not in BENCHMARK.json)"
		}
		fmt.Fprintf(w, "%-34s %14.4f %s%s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit, note)
	}
}

// saveResult keeps each run's result and provenance under buildDir.
func saveResult(prov provenance, r result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Result     result     `json:"result"`
	}{prov, r}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", prov.Workload, prov.Seed, prov.Trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// sourceCommit names the code under test: the git commit when the tree
// is a git checkout, otherwise a digest of its Go sources.
func sourceCommit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == buildDir || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
