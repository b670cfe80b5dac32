// Command perfbench is the repository's end-to-end benchmark: two aitfd
// gateways booted from their JSON configuration run as a loopback
// chain sender — a_gw — v_gw — victim under clean and attack traffic,
// and the simulator runs the property-suite scenarios.
//
//	bash perfbench/run.sh --workload clean-forward --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end figures, with --trace 1 the per-layer ones. A
// failed correctness check makes the command exit with status 1. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares,
// in its order; the self-test keeps the two lists in step.
var endToEnd = []string{
	"setup_s", "fwd_pps", "fwd_p50_us", "cpu_us_per_pkt",
	"relief_ms", "block_ms", "sim_scenarios_per_s", "max_rss_mb",
}

var perLayer = []string{
	"wire.a_gw.handle_data_ns", "wire.v_gw.handle_data_ns",
	"wire.a_gw.handle_ctrl_ns", "wire.v_gw.handle_ctrl_ns",
	"wire.fwd_p99_us", "wire.originate_ns", "wire.resolve_ns",
	"wire.hop_drops.sender-a_gw", "wire.hop_drops.a_gw-v_gw", "wire.hop_drops.v_gw-victim",
	"packet.decode_ns", "packet.decode_allocs", "packet.encode_ns", "packet.encode_allocs",
	"traceback.nonce_ns", "traceback.nonce_allocs", "traceback.verify_ns",
	"dataplane.classify_ns", "dataplane.install_ns", "dataplane.drop_ratio",
	"detect.observe_ns", "detect.detections",
	"filter.policed_ratio",
	"scenario.run_ms_p50", "scenario.run_ms_max", "scenario.events", "scenario.allocs",
	"runtime.allocs_per_pkt", "runtime.gc_cpu_frac", "proc.cpu_util_cores",
	"gen.late_max_ms", "gen.window_timeouts",
	"trace.overhead_pct", "fail_ratio",
}

var workloads = []string{"clean-forward", "flood-relief", "sim-scenarios"}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed the run's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time of the workload's own phase")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	fault := flag.String("fault", "", "inject a fault the checks must catch: secret or drop")
	flag.Parse()
	if *fault != "" && *fault != "secret" && *fault != "drop" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -fault %q\n", *fault)
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *fault, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload. Every run reports every metric: the
// workload's own phase measures the metrics it exercises, and short
// reference phases with fixed inputs measure the rest.
func run(workload string, seed int64, seconds time.Duration, trace bool, fault string, diag io.Writer) (*result, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	// Reference phases get a quarter of the run, between 1 s (enough
	// attack rounds for a traced slice to see control traffic) and 5 s.
	ref := min(max(seconds/4, time.Second), 5*time.Second)
	const refSeed = 1 // reference phases use fixed inputs
	wire := func(flood, own bool) (*outcome, error) {
		o := chainOpts{seed: refSeed, flood: flood, measure: ref, trace: trace, fault: fault}
		if own {
			o.seed, o.measure, o.setup = seed, seconds, true
		}
		out, err := runChain(o)
		if err == nil {
			out.label(map[bool]string{false: "clean chain", true: "flood chain"}[flood], own)
		}
		return out, err
	}
	sim := func(own bool) *outcome {
		o := simOpts{seed: refSeed, passes: 8}
		if own {
			o = simOpts{seed: seed, measure: seconds, passes: 2, setup: true}
		}
		out := runSim(o)
		out.label("simulator", own)
		return out
	}

	var out *outcome
	var err error
	switch workload {
	case "clean-forward":
		if out, err = wire(false, true); err != nil {
			return nil, err
		}
		flood, err := wire(true, false)
		if err != nil {
			return nil, err
		}
		out.merge(flood)
		out.merge(sim(false))
	case "flood-relief":
		if out, err = wire(true, true); err != nil {
			return nil, err
		}
		out.merge(sim(false))
	case "sim-scenarios":
		out = sim(true)
		flood, err := wire(true, false)
		if err != nil {
			return nil, err
		}
		out.merge(flood)
	default:
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	out.e2e.set("max_rss_mb", maxRSSMB(), "MB")
	failRatio := 0.0
	if out.attempted > 0 {
		failRatio = float64(out.failed) / float64(out.attempted)
	}
	out.layers.set("fail_ratio", failRatio, "ratio")

	names, from := endToEnd, out.e2e
	if trace {
		names, from = perLayer, out.layers
	}
	res := &result{Correct: len(out.problems) == 0 && out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(names))}
	for _, n := range names {
		m, ok := from[n]
		if !ok {
			if res.Correct {
				return nil, fmt.Errorf("workload %s measured no %s", workload, n)
			}
			// A run whose checks failed may not reach every layer; it
			// still reports, so the failure shows in its result line.
			m = metric{Unit: "missing"}
		}
		res.Metrics[n] = m
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted nothing", workload)
	}

	enc := json.NewEncoder(diag)
	_ = enc.Encode(map[string]any{"machine": machine()}) // diagnostics on a terminal or pipe
	_ = enc.Encode(map[string]any{"notes": out.notes, "problems": out.problems})
	return res, nil
}

// machine records where the figures were taken.
func machine() map[string]any {
	m := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     kernel(),
		"commit":     "unknown (not built from a git checkout)",
		"link":       "loopback 127.0.0.1: traffic never crossed a real link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
