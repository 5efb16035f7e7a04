package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pdmtune"
	"pdmtune/internal/minisql/types"
)

// tinyProduct has every level the workloads draw targets from, at a
// size that loads in a fraction of a second.
var tinyProduct = pdmtune.ProductConfig{Depth: 7, Branch: 3, Sigma: 0.67, Seed: 5}

func loadTiny(t *testing.T) *pdmtune.Product {
	t.Helper()
	prod, err := pdmtune.NewSystem(nil).LoadProduct(tinyProduct)
	if err != nil {
		t.Fatal(err)
	}
	return prod
}

func TestTruthMatchesDirectWalk(t *testing.T) {
	prod := loadTiny(t)
	tr := newTruth(prod)
	var below func(id int64) int
	below = func(id int64) int {
		n := 0
		for _, c := range prod.Nodes[id].Children {
			if prod.Nodes[c].LinkVis {
				n += 1 + below(c)
			}
		}
		return n
	}
	visible := 0
	for id, n := range prod.Nodes {
		if !n.Visible {
			if _, ok := tr.level[id]; ok {
				t.Fatalf("hidden node %d has ground truth", id)
			}
			continue
		}
		visible++
		if got, want := tr.visibleBelow[id], below(id); got != want {
			t.Errorf("visibleBelow[%d] = %d, direct walk %d", id, got, want)
		}
		kids := 0
		for _, c := range n.Children {
			if prod.Nodes[c].LinkVis {
				kids++
			}
		}
		if tr.visibleChildren[id] != kids {
			t.Errorf("visibleChildren[%d] = %d, want %d", id, tr.visibleChildren[id], kids)
		}
		hops := 0
		for p := n.Parent; p != 0; p = prod.Nodes[p].Parent {
			hops++
		}
		if tr.level[id] != hops {
			t.Errorf("level[%d] = %d, %d ancestors", id, tr.level[id], hops)
		}
	}
	if got := tr.visibleBelow[prod.RootID]; got != visible-1 || got != prod.VisibleNodes() {
		t.Errorf("root sees %d nodes, product has %d visible below the root", got, prod.VisibleNodes())
	}
	for _, p := range []pool{poolReads, poolParts, poolPairs} {
		if len(tr.pools[p]) == 0 {
			t.Errorf("pool %d is empty", p)
		}
	}
}

func TestSequencesRepeatPerSeed(t *testing.T) {
	tr := newTruth(loadTiny(t))
	for _, w := range workloads {
		for i, c := range w.clients {
			a := sequence(7, i, c.deck, rankings(7, tr, nil), 200)
			b := sequence(7, i, c.deck, rankings(7, tr, nil), 200)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s client %d: the same seed gave different sequences", w.name, i)
			}
			if reflect.DeepEqual(a, sequence(8, i, c.deck, rankings(8, tr, nil), 200)) {
				t.Fatalf("%s client %d: seeds 7 and 8 gave the same sequence", w.name, i)
			}
			// Every full deck of a sequence holds the client's mix exactly.
			want := map[opKind]int{}
			total := 0
			for _, s := range c.deck {
				want[s.kind] += s.slots
				total += s.slots
			}
			if total != deckLen(c.deck) {
				t.Fatalf("%s client %d: deck of %d slots, deckLen %d", w.name, i, total, deckLen(c.deck))
			}
			for start := 0; start+total <= len(a); start += total {
				got := map[opKind]int{}
				for _, o := range a[start : start+total] {
					got[o.kind]++
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s client %d: deck at %d has mix %v, want %v", w.name, i, start, got, want)
				}
			}
		}
	}
}

func TestZipfRepeatsPerSeedAndSkews(t *testing.T) {
	draw := func(seed int64) []int {
		return newZipf(1000).draws(rand.New(rand.NewSource(seed)), 4096)
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different draws")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same draws")
	}
	count := map[int]int{}
	for _, k := range a {
		if k < 0 || k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		count[k]++
	}
	// P(rank 0) ≈ 0.18 and P(rank 1) ≈ 0.084 at s = 1.1 over 1000 ranks.
	if count[0] < 600 || count[0] > 880 || count[1] >= count[0] || count[1] < 250 {
		t.Fatalf("rank 0 drawn %d times, rank 1 %d times of %d", count[0], count[1], len(a))
	}
}

func TestRankOrderInterleavesLevelsForEverySeed(t *testing.T) {
	tr := newTruth(loadTiny(t))
	level := func(id int64) int { return tr.level[id] }
	levels := func(seed int64) []int {
		var out []int
		for _, id := range rankOrder(rand.New(rand.NewSource(seed)), tr.pools[poolReads], level) {
			out = append(out, tr.level[id])
		}
		return out
	}
	if !reflect.DeepEqual(levels(1), levels(2)) {
		t.Fatal("the level at each rank depends on the seed")
	}
	if reflect.DeepEqual(rankOrder(rand.New(rand.NewSource(1)), tr.pools[poolReads], level),
		rankOrder(rand.New(rand.NewSource(2)), tr.pools[poolReads], level)) {
		t.Fatal("seeds 1 and 2 ranked the same nodes")
	}
}

func TestEveryKindDrawsTheSameLevelsForEverySeed(t *testing.T) {
	tr := newTruth(loadTiny(t))
	levels := func(seed int64, i int, deck []share) map[opKind]map[int]int {
		out := map[opKind]map[int]int{}
		for _, o := range sequence(seed, i, deck, rankings(seed, tr, nil), 200) {
			if o.kind.pool() == poolNone {
				continue
			}
			if out[o.kind] == nil {
				out[o.kind] = map[int]int{}
			}
			out[o.kind][tr.level[o.target]]++
		}
		return out
	}
	for _, w := range workloads {
		for i, c := range w.clients {
			if a, b := levels(7, i, c.deck), levels(8, i, c.deck); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s client %d: levels per kind %v for seed 7, %v for seed 8", w.name, i, a, b)
			}
		}
	}
}

func TestClientMedianAndTailBand(t *testing.T) {
	var samples []sample
	for _, d := range []time.Duration{1, 2, 3} {
		samples = append(samples, sample{client: 0, label: "mle", dur: d * time.Millisecond})
	}
	samples = append(samples,
		sample{client: 1, label: "mle", dur: 8 * time.Millisecond},
		sample{client: 1, label: "expand", dur: time.Second})
	if got := clientMedian(samples, "mle"); math.Abs(got-4) > 1e-9 {
		t.Errorf("clientMedian = %v, want 4 (the geometric mean of 2 and 8)", got)
	}
	if got := clientMedian(samples, "where-used"); got != 0 {
		t.Errorf("clientMedian of an absent label = %v, want 0", got)
	}
	var ds []time.Duration
	for i := 1; i <= 200; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	// Ranks 186 to 195 (the 92.5th to the 97.5th percentile) average 190.5.
	if got := tailBand(ds); math.Abs(got-190.5) > 1e-9 {
		t.Errorf("tailBand = %v, want 190.5", got)
	}
	if got := tailBand(ds[:1]); got != 1 {
		t.Errorf("tailBand of one sample = %v, want 1", got)
	}
}

func smokeOptions(name string, trace bool, spans string) options {
	return options{workload: name, seed: 3, seconds: time.Second, trace: trace, product: tinyProduct,
		setups: 1, replayBudget: time.Second, spans: spans, log: io.Discard}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res, problems, err := run(smokeOptions(w.name, trace, spans))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || len(problems) > 0 {
				t.Fatalf("%s trace=%v: checks failed: %v", w.name, trace, problems)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d", w.name, trace, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Fatalf("%s trace=%v: metric %s = %+v", w.name, trace, d.name, v)
				}
			}
			if !trace {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			if res.Metrics["minisql.replay_stmts"].Value == 0 || res.Metrics["wire.server_ms_per_rt"].Value == 0 {
				t.Errorf("%s: traced phase recorded no round trips or replayed nothing", w.name)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("%s: spans file: %v", w.name, err)
			}
		}
	}
}

func TestFinalChecksCatchLeftoverCheckOutAndReplicaDrift(t *testing.T) {
	w, _ := findWorkload("change-sync")
	f, _, err := setup(w, tinyProduct)
	if err != nil {
		t.Fatal(err)
	}
	if problems := finalChecks(f); len(problems) > 0 {
		t.Fatalf("a fresh set-up fails the checks: %v", problems)
	}
	sess, err := f.cl.Primary().Open(pdmtune.WithUser(pdmtune.DefaultUser("walter")))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	target := f.truth.pools[poolPairs][0]
	if res, err := sess.CheckOut(context.Background(), target); err != nil || !res.Granted {
		t.Fatalf("check-out: %v %+v", err, res)
	}
	if problems := finalChecks(f); len(problems) == 0 {
		t.Fatal("a subtree left checked out passed the checks")
	}
	if _, err := sess.CheckIn(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	if problems := finalChecks(f); len(problems) > 0 {
		t.Fatalf("after check-in: %v", problems)
	}
	site, _ := f.cl.Site(siteName)
	if _, err := site.DB().NewSession().Exec("UPDATE assy SET name = 'drift' WHERE obid = ?", types.NewInt(f.subRoot[0])); err == nil {
		if problems := compareClosure(f.cl.Primary().DB, site.DB(), subscribedClosure(f)); len(problems) == 0 {
			t.Fatal("a replica row that differs from the primary passed the comparison")
		}
	} else {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
