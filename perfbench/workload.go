package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"pdmtune"
)

// opKind is one slot of a client's action sequence. A pair slot runs
// two actions (check-out, then check-in of the same subtree), so no
// client ever stops with a subtree still checked out.
type opKind int

const (
	opMLE opKind = iota
	opExpand
	opWhereUsed
	opCheckPair // client-driven check-out, then check-in
	opProcPair  // stored-procedure check-out, then check-in
	opECO
	opSync // Cluster.SyncSite of the client's site
)

// pool is the target population an op kind draws from.
type pool int

const (
	poolNone  pool = iota
	poolReads      // visible assemblies at levels 2–6
	poolParts      // visible components
	poolPairs      // visible assemblies at levels 4–6
)

func (k opKind) pool() pool {
	switch k {
	case opMLE, opExpand:
		return poolReads
	case opWhereUsed, opECO:
		return poolParts
	case opCheckPair, opProcPair:
		return poolPairs
	}
	return poolNone
}

// share is one op kind's number of slots per deck. A client's sequence
// is a run of decks, each holding its mix exactly in shuffled order, and
// a phase runs whole decks: a seed varies the order and the targets of
// the actions, never how many of each kind a phase measures.
type share struct {
	kind  opKind
	slots int
}

// deckLen is the number of slots in one deck of the mix.
func deckLen(deck []share) int {
	n := 0
	for _, s := range deck {
		n += s.slots
	}
	return n
}

// clientSpec is one of a workload's two closed-loop clients.
type clientSpec struct {
	atSite bool // opened at the replica site instead of the primary
	opts   []pdmtune.Option
	deck   []share
	// rate is the client's slots per second of phase length. The two
	// clients' rates stand in the ratio of their speeds on a 2-vCPU
	// x86-64 VM, so they finish together, at about the phase length;
	// browse-warm's are scaled down, as its actions take microseconds.
	rate float64
}

// workload is one named traffic mix of two clients.
type workload struct {
	name string
	why  string
	// site adds the replica site "saopaulo", subscribed to about half
	// of the root's child subtrees, synced once during set-up.
	site bool
	// warm gives both clients one shared structure cache (default
	// bound) and fills it with every target of their sequences before
	// timing starts.
	warm    bool
	clients [2]clientSpec
}

const siteName = "saopaulo"

func recursiveClient(user string) []pdmtune.Option {
	return []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser(user)), pdmtune.WithStrategy(pdmtune.Recursive)}
}

func earlyClient(user string) []pdmtune.Option {
	return []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser(user)), pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true), pdmtune.WithPreparedStatements(true)}
}

// workloads are the benchmark's traffic mixes. All run on the paper's
// intercontinental link (the default of primary sessions and the
// site's WAN link).
var workloads = []workload{
	{
		name: "browse",
		why:  "cold reads: every action reaches the engine; one recursive query vs per-level batches of prepared lookups",
		clients: [2]clientSpec{
			{opts: recursiveClient("alice"), deck: []share{{opMLE, 9}, {opExpand, 9}, {opWhereUsed, 2}}, rate: 13},
			{opts: earlyClient("bob"), deck: []share{{opMLE, 9}, {opExpand, 9}, {opWhereUsed, 2}}, rate: 19},
		},
	},
	{
		name: "browse-warm",
		why:  "the browse reads against a warm shared structure cache: client and cache work dominate, the engine is bypassed",
		warm: true,
		clients: [2]clientSpec{
			{opts: recursiveClient("alice"), deck: []share{{opMLE, 1}, {opExpand, 1}}, rate: 24000},
			{opts: earlyClient("bob"), deck: []share{{opMLE, 1}, {opExpand, 1}}, rate: 16000},
		},
	},
	{
		name: "change-sync",
		why:  "writes beside reads: check-outs, procedures and ECOs at the primary, a partial replica syncing and falling through",
		site: true,
		clients: [2]clientSpec{
			{opts: recursiveClient("walter"), deck: []share{{opCheckPair, 3}, {opProcPair, 1}, {opECO, 1}}, rate: 2.9},
			{atSite: true, opts: earlyClient("sofia"), deck: []share{{opSync, 2}, {opMLE, 12}, {opExpand, 12}, {opProcPair, 2}}, rate: 33.6},
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// truth is the generator's ground truth for every target: what each
// action must return.
type truth struct {
	// visibleBelow counts the visible nodes under a visible node (the
	// node itself excluded): an MLE's Visible.
	visibleBelow map[int64]int
	// visibleChildren counts a visible node's visible children: an
	// Expand's Visible.
	visibleChildren map[int64]int
	// level is a node's depth, which for a visible node is the number
	// of its ancestors: a where-used's Visible and an ECO's Affected.
	level map[int64]int
	// pools holds each target population in ascending object id order.
	pools map[pool][]int64
}

// newTruth derives the ground truth from the generated product: the
// visible counts are summed bottom-up, level by level, over the links
// the user may traverse (Node.LinkVis).
func newTruth(p *pdmtune.Product) *truth {
	t := &truth{
		visibleBelow:    map[int64]int{},
		visibleChildren: map[int64]int{},
		level:           map[int64]int{},
		pools:           map[pool][]int64{},
	}
	byLevel := map[int][]int64{}
	maxLevel := 0
	for id, n := range p.Nodes {
		if !n.Visible {
			continue
		}
		byLevel[n.Level] = append(byLevel[n.Level], id)
		t.level[id] = n.Level
		if n.Level > maxLevel {
			maxLevel = n.Level
		}
	}
	for lvl := maxLevel; lvl >= 0; lvl-- {
		for _, id := range byLevel[lvl] {
			for _, c := range p.Nodes[id].Children {
				if p.Nodes[c].LinkVis {
					t.visibleChildren[id]++
					t.visibleBelow[id] += 1 + t.visibleBelow[c]
				}
			}
		}
	}
	for id, lvl := range t.level {
		switch n := p.Nodes[id]; {
		case n.Type == "comp":
			t.pools[poolParts] = append(t.pools[poolParts], id)
		case lvl >= 2 && lvl <= 6:
			t.pools[poolReads] = append(t.pools[poolReads], id)
			if lvl >= 4 {
				t.pools[poolPairs] = append(t.pools[poolPairs], id)
			}
		}
	}
	for _, ids := range t.pools {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return t
}

// rankOrder returns ids in Zipf rank order. Targets are grouped into
// classes that cost the same to act on — a visible subtree's size
// depends only on its level, and a replica site either holds a subtree
// or reads it through from the primary — and the classes are
// interleaved in proportion to their size (largest deficit first). So
// every seed puts a target of the same class at each rank, and the seed
// shuffles which target of that class it is. Without the interleave the
// few hottest ranks would land in different classes for different
// seeds, and a run's cost would follow the seed.
func rankOrder(rng *rand.Rand, ids []int64, class func(int64) int) []int64 {
	groups := map[int][]int64{}
	var levels []int
	for _, id := range ids {
		l := class(id)
		if groups[l] == nil {
			levels = append(levels, l)
		}
		groups[l] = append(groups[l], id)
	}
	sort.Ints(levels)
	for _, l := range levels {
		g := groups[l]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	out := make([]int64, 0, len(ids))
	taken := map[int]int{}
	for r := 1; r <= len(ids); r++ {
		best, bestDeficit := 0, math.Inf(-1)
		for _, l := range levels {
			if taken[l] == len(groups[l]) {
				continue
			}
			deficit := float64(len(groups[l]))*float64(r)/float64(len(ids)) - float64(taken[l])
			if deficit > bestDeficit {
				best, bestDeficit = l, deficit
			}
		}
		out = append(out, groups[best][taken[best]])
		taken[best]++
	}
	return out
}

// zipfS is the skew of target choice over ranks.
const zipfS = 1.1

// zipf is the rank distribution P(rank k) ∝ 1/(k+1)^s over n ranks,
// as its cumulative probabilities.
type zipf []float64

func newZipf(n int) zipf {
	cdf := make(zipf, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// draws returns d ranks: the midpoints of d equal-probability strata
// of the distribution, in seeded order. They are as skewed as
// independent draws, but every seed draws the same ranks — with the
// class-interleaved ranking, the same mix of cheap and costly targets —
// so the seed varies which targets the actions hit and in which order,
// not how much work they are.
func (z zipf) draws(rng *rand.Rand, d int) []int {
	out := make([]int, d)
	for j := range out {
		k := sort.SearchFloat64s(z, (float64(j)+0.5)/float64(d))
		if k >= len(z) {
			k = len(z) - 1
		}
		out[j] = k
	}
	rng.Shuffle(d, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// op is one slot of a sequence.
type op struct {
	kind   opKind
	target int64
}

// seqSlots is the length of the sequences of browse-warm, whose timed
// phase cycles through them: its warm pass costs one action per
// distinct target, and a recursive MLE costs about 100 ms cold.
const seqSlots = 256

// seqLen is the length of a client's sequence for a run whose phases
// add up to d: the slots it runs in d, or for a warm workload
// seqSlots rounded up to whole decks.
func seqLen(w workload, spec clientSpec, d time.Duration) int {
	if !w.warm {
		return slots(spec, d)
	}
	deck := deckLen(spec.deck)
	return (seqSlots + deck - 1) / deck * deck
}

// sequence builds one client's fixed action sequence of n slots: decks
// of the client's mix in shuffled order, each target drawn by Zipf rank
// from the workload's ranking of the op's pool.
func sequence(seed int64, client int, deck []share, ranked map[pool][]int64, n int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
	var seq []op
	for len(seq) < n {
		var kinds []opKind
		for _, s := range deck {
			for i := 0; i < s.slots; i++ {
				kinds = append(kinds, s.kind)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			seq = append(seq, op{kind: k})
		}
	}
	// Each op kind draws its own ranks, so the mix of cheap and costly
	// targets is fixed per kind too, not only per pool: were MLE and
	// Expand to share one set of draws, the seed would decide which of
	// them got the costly ranks.
	for _, s := range deck {
		p := s.kind.pool()
		if p == poolNone {
			continue
		}
		var slots []int
		for i, o := range seq {
			if o.kind == s.kind {
				slots = append(slots, i)
			}
		}
		for i, k := range newZipf(len(ranked[p])).draws(rng, len(slots)) {
			seq[slots[i]].target = ranked[p][k]
		}
	}
	return seq
}

// rankings ranks every target pool for one seed. Both clients of a
// workload share it, so their hot targets coincide — which is what
// makes check-outs of the two clients of change-sync collide. held
// reports whether the workload's replica site holds an object (nil:
// there is no site).
func rankings(seed int64, t *truth, held map[int64]bool) map[pool][]int64 {
	rng := rand.New(rand.NewSource(seed))
	class := func(id int64) int {
		c := 2 * t.level[id]
		if held[id] {
			c++
		}
		return c
	}
	out := map[pool][]int64{}
	for _, p := range []pool{poolReads, poolParts, poolPairs} {
		out[p] = rankOrder(rng, t.pools[p], class)
	}
	return out
}
