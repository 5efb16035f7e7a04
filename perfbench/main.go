// Command perfbench is the repository's benchmark. It loads the paper's
// δ=7, β=5, σ=0.6 product, runs one named workload as a closed loop of
// two client sessions in this process, checks every result against the
// generator's ground truth and prints each metric by name with its
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"setup_s": {"value": 8.1, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured
// untraced; with --trace 1 they are the per-layer ones, from a traced
// phase that follows an untraced one. See README.md for every metric.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload browse --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pdmtune"
	"pdmtune/internal/minisql"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; --trace 0
// reports them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"actions_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"mle_ms_p50", "ms"},
	{"expand_ms_p50", "ms"},
	{"wan_s_per_action", "sim_s"},
	{"allocs_per_action", "count"},
	{"heap_mb", "MB"},
	{"completed_frac", "ratio"},
}

// perLayer are the metrics of single layers; --trace 1 reports them.
var perLayer = []metricDef{
	{"core.client_ms_per_action", "ms"},
	{"core.client_share", "ratio"},
	{"core.visible_nodes_per_action", "count"},
	{"core.fallthrough_rts_per_action", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.validate_rts_per_action", "count"},
	{"cache.entries", "count"},
	{"wire.round_trips_per_action", "count"},
	{"wire.statements_per_action", "count"},
	{"wire.prepared_execs_per_action", "count"},
	{"wire.request_bytes_per_action", "B"},
	{"wire.response_bytes_per_action", "B"},
	{"wire.server_ms_per_rt", "ms"},
	{"wire.exec_ms_p50", "ms"},
	{"wire.batch_ms_p50", "ms"},
	{"wire.validate_ms_p50", "ms"},
	{"wire.sync_ms_p50", "ms"},
	{"netsim.latency_s_per_action", "sim_s"},
	{"netsim.transfer_s_per_action", "sim_s"},
	{"minisql.exec_ms_per_stmt", "ms"},
	{"minisql.replay_stmts", "count"},
	{"minisql.plan_hit_ratio", "ratio"},
	{"minisql.snapshots_per_action", "count"},
	{"minisql.lock_wait_ms_per_action", "ms"},
	{"minisql.write_conflicts_per_action", "count"},
	{"topology.sync_ms_p50", "ms"},
	{"topology.apply_ms_p50", "ms"},
	{"topology.rows_per_sync", "count"},
	{"topology.sync_bytes_per_pull", "B"},
	{"subscribe.skipped_row_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// paperProduct is the paper's worldwide scenario.
var paperProduct = pdmtune.ProductConfig{Depth: 7, Branch: 5, Sigma: 0.6}

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	product  pdmtune.ProductConfig
	// setups is how many times the system is set up; setup_s is the
	// median, the last one is measured.
	setups int
	// replayBudget caps the engine replay of the traced phase's reads.
	replayBudget time.Duration
	// spans is the file the traced phase's spans are written to ("" to
	// keep them in memory only).
	spans string
	// log receives the human-readable report.
	log io.Writer
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	o := options{product: paperProduct, setups: 3, replayBudget: 2 * time.Second, log: os.Stdout}
	var seconds int
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: browse, browse-warm or change-sync")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the product and of the action sequences")
	fs.IntVar(&seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced phase, 0 end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.product.Seed = o.seed
	if o.trace {
		o.spans = filepath.Join(".bench_build", "spans", o.workload+".jsonl")
	}
	res, problems, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and checks it. problems lists
// the failed correctness checks.
func run(o options) (*result, []string, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var f *fixture
	var setups []float64
	for i := 0; i < o.setups; i++ {
		f = nil // the previous set-up is garbage before the next starts
		runtime.GC()
		var d time.Duration
		var err error
		if f, d, err = setup(w, o.product); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapInuse) / 1e6

	// A traced run measures two phases of half the length on the same
	// slots, so their difference is the tracing alone.
	phaseLen := o.seconds
	if o.trace {
		phaseLen /= 2
	}
	cs := make([]*client, len(w.clients))
	for i, spec := range w.clients {
		cs[i] = &client{idx: i, spec: spec, f: f, ctx: context.Background(),
			seq: sequence(o.seed, i, spec.deck, f.ranked, seqLen(w, spec, phaseLen))}
	}
	if err := openAll(cs); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(o.log, "set-up: %.3g s (median of %d)\n", median(setups), len(setups))
	if w.warm {
		start := time.Now()
		warm(cs)
		for _, c := range cs {
			if c.n.failed > 0 {
				return nil, nil, fmt.Errorf("warming the cache: %s", strings.Join(c.errs, "; "))
			}
		}
		fmt.Fprintf(o.log, "warm pass: %.3g s\n", time.Since(start).Seconds())
	}
	res := &result{Metrics: map[string]value{}}
	var phases []*phase
	if !o.trace {
		p := drive(f, cs, phaseLen)
		phases = append(phases, p)
		report(res, endToEnd, endToEndMetrics(p, setups, heapMB))
		fmt.Fprintf(o.log, "samples: %d actions in %v (clients %v), %d denied, %d conflicts (%s)\n",
			p.actions(), p.makespan, p.took, p.n.denied, p.n.conflicts, byLabel(p.samples))
		fmt.Fprintf(o.log, "slowest: %s\n", slowest(p.samples, 12))
	} else {
		cursors := make([]int, len(cs))
		for i, c := range cs {
			cursors[i] = c.cursor
		}
		untraced := drive(f, cs, phaseLen)
		closeAll(cs)
		tr := newTracer(f.cl, len(cs))
		for i, c := range cs {
			c.rec = tr.recs[i]
			c.ctx = c.rec.context()
			c.cursor = cursors[i]
		}
		if err := openAll(cs); err != nil {
			return nil, nil, err
		}
		traced := drive(f, cs, phaseLen)
		phases = append(phases, untraced, traced)
		dbs := map[string]*minisql.DB{pdmtune.PrimarySite: f.cl.Primary().DB}
		if site, ok := f.cl.Site(siteName); ok {
			dbs[siteName] = site.DB()
		}
		stmts, err := tr.reads(dbs)
		if err != nil {
			return nil, nil, err
		}
		n, took, err := replay(stmts, o.replayBudget)
		if err != nil {
			return nil, nil, err
		}
		report(res, perLayer, layerMetrics(f, tr, untraced, traced, n, took))
		fmt.Fprintf(o.log, "samples: %d untraced, %d traced actions (%s); replayed %d of %d reads\n",
			untraced.actions(), traced.actions(), byLabel(traced.samples), n, len(stmts))
		if o.spans != "" {
			if err := tr.write(o.spans); err != nil {
				return nil, nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	closeAll(cs)

	for _, p := range phases {
		res.Attempted += p.actions()
		res.Failed += p.n.failed
	}
	var problems []string
	for _, c := range cs {
		problems = append(problems, c.bad...)
		for _, e := range c.errs {
			fmt.Fprintln(o.log, "action failed:", e)
		}
	}
	if w.site {
		problems = append(problems, finalChecks(f)...)
	}
	res.Correct = len(problems) == 0
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if v, ok := res.Metrics[m.name]; ok {
				fmt.Fprintf(o.log, "%-36s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
	return res, problems, nil
}

func openAll(cs []*client) error {
	for _, c := range cs {
		if err := c.open(); err != nil {
			return fmt.Errorf("opening client %d: %w", c.idx, err)
		}
	}
	return nil
}

// closeAll releases the sessions' server-side state. A close that fails
// leaves only prepared statements behind, which nothing reads again.
func closeAll(cs []*client) {
	for _, c := range cs {
		_ = c.sess.Close()
	}
}

func report(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// percentile is the nearest-rank q-quantile of ds in milliseconds (0
// when ds is empty).
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	return ms(s[k])
}

// tailBand is latency_ms_p95: the mean of the samples from the 92.5th to
// the 97.5th percentile, in milliseconds. browse and change-sync have
// only 22–29 samples beyond their p95, so the one sample at the nearest
// rank swings with whichever slow action lands there; the band averages
// two dozen neighbours of it (0 when ds is empty).
func tailBand(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	lo := int(0.925 * float64(len(s)))
	hi := int(math.Ceil(0.975 * float64(len(s))))
	if hi <= lo {
		hi = lo + 1
	}
	var sum time.Duration
	for _, d := range s[lo:hi] {
		sum += d
	}
	return ms(sum) / float64(hi-lo)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durations(samples []sample, label string) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if label == "" || s.label == label {
			out = append(out, s.dur)
		}
	}
	return out
}

// clientMedian is the geometric mean of each client's median time of
// one action label, over the clients that ran it. The two clients of a
// workload run the label at speeds up to 200 times apart, so a median
// pooled over both falls into the tail of the faster one, and the seed
// and the machine's noise move it more than the program does; the
// geometric mean moves by half of any change of either client's median.
func clientMedian(samples []sample, label string) float64 {
	byClient := map[int][]time.Duration{}
	for _, s := range samples {
		if s.label == label {
			byClient[s.client] = append(byClient[s.client], s.dur)
		}
	}
	if len(byClient) == 0 {
		return 0
	}
	logSum := 0.0
	for _, ds := range byClient {
		logSum += math.Log(percentile(ds, 0.5))
	}
	return math.Exp(logSum / float64(len(byClient)))
}

// slowest lists the n slowest actions.
func slowest(samples []sample, n int) string {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].dur > s[j].dur })
	var parts []string
	for i := 0; i < n && i < len(s); i++ {
		parts = append(parts, fmt.Sprintf("%s %.0f", s[i].label, ms(s[i].dur)))
	}
	return strings.Join(parts, ", ")
}

// byLabel summarizes samples per action label: count and median.
func byLabel(samples []sample) string {
	ds := map[string][]time.Duration{}
	for _, s := range samples {
		ds[s.label] = append(ds[s.label], s.dur)
	}
	var parts []string
	for l, d := range ds {
		parts = append(parts, fmt.Sprintf("%s %d p50 %.3g ms", l, len(d), percentile(d, 0.5)))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func endToEndMetrics(p *phase, setups []float64, heapMB float64) map[string]float64 {
	n := float64(p.actions())
	return map[string]float64{
		"setup_s":           median(setups),
		"actions_per_s":     n / p.makespan.Seconds(),
		"latency_ms_p50":    percentile(durations(p.samples, ""), 0.50),
		"latency_ms_p95":    tailBand(durations(p.samples, "")),
		"mle_ms_p50":        clientMedian(p.samples, "mle"),
		"expand_ms_p50":     clientMedian(p.samples, "expand"),
		"wan_s_per_action":  ratio(p.metrics.TotalSec(), n),
		"allocs_per_action": ratio(float64(p.mallocs), n),
		"heap_mb":           heapMB,
		"completed_frac":    ratio(n-float64(p.n.failed), n),
	}
}

// layerMetrics splits the traced phase by layer. Self times come from
// the spans: an action's client time is its span minus the round trips
// it caused, a sync's apply time its span minus its pull.
func layerMetrics(f *fixture, tr *tracer, untraced, traced *phase, replayed int, replayTook time.Duration) map[string]float64 {
	m := traced.metrics
	spans := tr.spans()
	childTime := map[int64]time.Duration{}
	var rts []span
	for _, s := range spans {
		if s.Name == "rt" {
			rts = append(rts, s)
			childTime[s.Parent] += s.dur()
		}
	}
	var clientSelf, actionTime time.Duration
	var actions int
	var syncs, applies []time.Duration
	for _, s := range spans {
		switch s.Name {
		case "rt":
		case "sync":
			syncs = append(syncs, s.dur())
			applies = append(applies, s.dur()-childTime[s.ID])
		default:
			actions++
			actionTime += s.dur()
			clientSelf += s.dur() - childTime[s.ID]
		}
	}
	byFrame := map[string][]time.Duration{}
	var rtTime time.Duration
	for _, s := range rts {
		byFrame[s.Frame] = append(byFrame[s.Frame], s.dur())
		rtTime += s.dur()
	}
	n := float64(traced.actions())
	entries := 0
	if f.cache != nil {
		entries = f.cache.Len()
	}
	tracedAPS := n / traced.makespan.Seconds()
	untracedAPS := float64(untraced.actions()) / untraced.makespan.Seconds()
	return map[string]float64{
		"core.client_ms_per_action":          ratio(ms(clientSelf), float64(actions)),
		"core.client_share":                  ratio(float64(clientSelf), float64(actionTime)),
		"core.visible_nodes_per_action":      ratio(float64(traced.n.visible), n),
		"core.fallthrough_rts_per_action":    ratio(float64(m.FallThroughRoundTrips), n),
		"cache.hit_ratio":                    ratio(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses)),
		"cache.validate_rts_per_action":      ratio(float64(m.ValidateRoundTrips), n),
		"cache.entries":                      float64(entries),
		"wire.round_trips_per_action":        ratio(float64(m.RoundTrips), n),
		"wire.statements_per_action":         ratio(float64(m.Statements), n),
		"wire.prepared_execs_per_action":     ratio(float64(m.PreparedExecs), n),
		"wire.request_bytes_per_action":      ratio(m.RequestBytes, n),
		"wire.response_bytes_per_action":     ratio(m.ResponseBytes, n),
		"wire.server_ms_per_rt":              ratio(ms(rtTime), float64(len(rts))),
		"wire.exec_ms_p50":                   percentile(byFrame["exec"], 0.5),
		"wire.batch_ms_p50":                  percentile(byFrame["batch"], 0.5),
		"wire.validate_ms_p50":               percentile(byFrame["validate"], 0.5),
		"wire.sync_ms_p50":                   percentile(byFrame["sync"], 0.5),
		"netsim.latency_s_per_action":        ratio(m.LatencySec, n),
		"netsim.transfer_s_per_action":       ratio(m.TransferSec, n),
		"minisql.exec_ms_per_stmt":           ratio(ms(replayTook), float64(replayed)),
		"minisql.replay_stmts":               float64(replayed),
		"minisql.plan_hit_ratio":             ratio(float64(m.PlanHits), float64(m.PlanHits+m.PlanMisses)),
		"minisql.snapshots_per_action":       ratio(float64(m.SnapshotsStarted), n),
		"minisql.lock_wait_ms_per_action":    ratio(float64(m.LockWaitNanos)/1e6, n),
		"minisql.write_conflicts_per_action": ratio(float64(m.WriteConflicts), n),
		"topology.sync_ms_p50":               percentile(syncs, 0.5),
		"topology.apply_ms_p50":              percentile(applies, 0.5),
		"topology.rows_per_sync":             ratio(float64(traced.n.syncRows), float64(len(syncs))),
		"topology.sync_bytes_per_pull":       ratio(traced.pulls.VolumeBytes(), float64(traced.pulls.SyncRoundTrips)),
		"subscribe.skipped_row_share":        ratio(float64(m.SkippedRows), float64(m.SubscribedRows+m.SkippedRows)),
		"trace.overhead_frac":                ratio(tracedAPS-untracedAPS, untracedAPS),
	}
}
