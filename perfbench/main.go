// Command perfbench is the repository's benchmark: it asks the paper's
// question — does compressing at the proxy save the handheld's time and
// joules once decompression is paid for? — end to end, and splits the
// answer layer by layer.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload hit-table2 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25
//
// Workloads. The first two are closed loops of 2 client goroutines (one
// connection per fetch) against an in-process server over loopback TCP;
// no link rate is modelled on the wire.
//
//   - hit-table2: every fetch is a gzip/precompressed cache hit over the
//     Table 2 corpus at 1/8 scale. It stresses sockets, framing, checksums
//     and client decompression, and bypasses the compressor: a compress
//     kernel change should move only setup_s here.
//   - churn-selective: half selective (Eq. 6), half on-demand gzip fetches;
//     every read is followed by re-registering a random corpus file with
//     identical bytes, so most fetches miss and compress on the serving
//     path. It stresses lz77/flate, the selective decider, singleflight and
//     invalidation; checksums are a small share.
//   - fleet-10k: testdata/scenarios/loadgen/fleet-10k.scn through the
//     loadgen CLI, 10,000 handhelds on the virtual clock, repeated at one
//     seed for the measured window. Payloads are 2-3 KB, so harness,
//     simnet and fixed per-fetch cost dominate; a codec or checksum change
//     should move nothing here.
//
// End-to-end metrics come from an untraced run (--trace 0) of at least 4
// seconds: throughput, CPU per fetch and p50 latency are medians over
// one-second windows, p99 is over the whole run, setup_s is the median of
// set-ups spread before and after the window, and j_per_raw_mb is the
// paper's closed form (Eq. 1 or Eq. 3 at 11 Mb/s) over each fetch's raw
// and wire bytes. On fleet-10k the latencies are the handhelds' virtual-clock latencies from
// the events' dur_ns; they are fixed by the seed, and every loadgen run
// of one invocation must reproduce them, its counts and its joules.
//
// A traced run (--trace 1) installs tracers through ProxyConfig.Tracer
// and Client.Tracer, wraps each Fetch, Register, Precompress, codec
// replay and loadgen run in the benchmark's own spans, and prints the
// per-layer ledger: *_us metrics are mean microseconds per fetch (per call
// for register_us), and self time is a span's duration minus what its
// phases cover. loadgen runs the proxy in its own process, so on
// fleet-10k the proxy, runtime, codec and selective layers are measured
// on an in-process replay of the fleet's payload shapes, while harness.*,
// energy.* and attempts_per_fetch come from the loadgen run itself.
//
// Which end-to-end metric each layer should move, and where:
//
//	proxy.client.* phases, serve_self, write_blocks, read_request
//	                         fetch_p50_ms, raw_mb_per_s on hit-table2
//	proxy.client.attempts    ok_ratio
//	proxy.server.compress_us, coalesced_wait, queue depth, register_us,
//	proxy.cache.*, proxy.singleflight.*, compressions_per_miss
//	                         fetches_per_s, fetch_p99_ms on churn-selective
//	codec.gzip.compress_mb_s fetches_per_s on churn, setup_s on hit
//	codec.*.decompress_mb_s  fetch_p50_ms on hit-table2
//	codec.gzip.factor, selective.*, energy.*
//	                         j_per_raw_mb (and churn fetches_per_s)
//	runtime.*                cpu_ms_per_fetch on hit-table2 and fleet-10k
//	harness.*                fetches_per_s, peak_rss_mb on fleet-10k
//
// A checksum change should move nothing on fleet-10k, and a compress
// kernel change should move hit-table2 only in setup_s.
//
// --workload all runs each workload untraced and then traced, every run
// in a process of its own, and prints every metric by name.
//
// Metric names and units are read from BENCHMARK.json at the checkout
// root; a per-layer metric whose span phase or counter is absent is
// reported as missing, never as zero. The benchmark uses only the root
// repro package's public API and the loadgen CLI with its -events JSONL.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalogue is the part of BENCHMARK.json the program reads.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// outcome is what one workload run measured. Metrics absent from the map
// are reported as missing.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string
}

func newOutcome() *outcome { return &outcome{correct: true, metrics: map[string]float64{}} }

// fail marks the run incorrect and says why.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.notes = append(o.notes, "check failed: "+fmt.Sprintf(format, args...))
}

type options struct {
	root    string
	seed    int64
	seconds time.Duration
	trace   bool
	// loadgen is a prebuilt loadgen binary; empty builds one.
	loadgen string
}

func main() {
	var (
		workload = flag.String("workload", "", "hit-table2, churn-selective, fleet-10k, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds per run, at least 4")
		trace    = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
		root     = flag.String("root", ".", "root of the checkout")
		lgBin    = flag.String("loadgen", "", "prebuilt loadgen binary (default: build cmd/loadgen)")
	)
	flag.Parse()
	opt := options{root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, loadgen: *lgBin}
	if err := run(*workload, opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, opt options) error {
	// Throughput, CPU and p50 are medians over one-second windows; fewer
	// than three of them make no median worth reporting.
	if opt.seconds < 4*time.Second {
		return errors.New("--seconds must be at least 4")
	}
	raw, err := os.ReadFile(filepath.Join(opt.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var cat catalogue
	if err := json.Unmarshal(raw, &cat); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if workload == "all" {
		return runAll(cat, opt)
	}
	var o *outcome
	switch workload {
	case "hit-table2":
		o, err = runInProcess(hitTable2(), opt)
	case "churn-selective":
		o, err = runInProcess(churnSelective(), opt)
	case "fleet-10k":
		// loadgen is built at most once per invocation, outside every
		// timed interval.
		var lg *loadgen
		if lg, err = newLoadgen(opt.root, opt.loadgen); err != nil {
			return err
		}
		defer lg.remove()
		o, err = runFleet(lg, opt)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	defs := cat.EndToEnd
	if opt.trace {
		defs = cat.PerLayer
	}
	printMetrics(workload, defs, o)
	return printResult(defs, o)
}

// runAll is one command for every workload: the untraced end-to-end run,
// then the traced per-layer run, of each. Every run is a process of its
// own, so peak RSS and rusage are that run's alone; loadgen is built once
// and handed to them.
func runAll(cat catalogue, opt options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	lg, err := newLoadgen(opt.root, "")
	if err != nil {
		return err
	}
	defer lg.remove()
	total := newOutcome()
	var all []metricDef
	for _, w := range cat.Workloads {
		for trace, defs := range [][]metricDef{cat.EndToEnd, cat.PerLayer} {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.Itoa(int(opt.seconds/time.Second)), "-trace", strconv.Itoa(trace),
				"-root", opt.root, "-loadgen", lg.bin)
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s: %v (%v)", w.Name, runErr, err)
			}
			// Everything but the result line is the run's report.
			for _, l := range lines[:len(lines)-1] {
				fmt.Println(l)
			}
			total.correct = total.correct && res.Correct && runErr == nil
			total.attempted += res.Attempted
			total.failed += res.Failed
			for k, v := range res.Metrics {
				total.metrics[w.Name+"/"+k] = v.Value
			}
			for _, d := range defs {
				all = append(all, metricDef{Name: w.Name + "/" + d.Name, Unit: d.Unit})
			}
		}
	}
	return printResult(all, total)
}

func printMetrics(workload string, defs []metricDef, o *outcome) {
	for _, n := range o.notes {
		fmt.Printf("%s: %s\n", workload, n)
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Printf("%s %-40s %14.6g %s\n", workload, d.Name, v, d.Unit)
	}
	if len(missing) > 0 {
		fmt.Printf("%s missing (no span phase or counter to measure it): %s\n", workload, strings.Join(missing, ", "))
	}
}

// printResult prints the last line: one JSON object with the listed
// metrics that were measured. It fails when an output check failed.
func printResult(defs []metricDef, o *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		if v, ok := o.metrics[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			metrics[d.Name] = value{v, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.correct {
		return errors.New("output checks failed")
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
