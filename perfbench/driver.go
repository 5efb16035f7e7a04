package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pdmtune"
)

// fixture is one set-up system: the loaded product, its ground truth and
// the workload's target rankings.
type fixture struct {
	cl      *pdmtune.Cluster
	prod    *pdmtune.Product
	truth   *truth
	ranked  map[pool][]int64
	subRoot []int64 // the site's subscribed subtree roots
	cache   *pdmtune.Cache
}

// setup builds the workload's system: the product load, plus for a
// workload with a site its subscription and initial sync. Only this is
// timed as set-up; ground truth and rankings are derived afterwards.
func setup(w workload, pc pdmtune.ProductConfig) (*fixture, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	var sites []pdmtune.SiteConfig
	if w.site {
		sites = append(sites, pdmtune.SiteConfig{Name: siteName, Link: pdmtune.Intercontinental()})
	}
	cl, err := pdmtune.NewCluster(nil, sites...)
	if err != nil {
		return nil, 0, err
	}
	prod, err := cl.LoadProduct(pc)
	if err != nil {
		return nil, 0, fmt.Errorf("load product: %w", err)
	}
	f := &fixture{cl: cl, prod: prod}
	if w.site {
		f.subRoot = halfOfRoot(prod)
		if err := cl.Subscribe(siteName, f.subRoot...); err != nil {
			return nil, 0, err
		}
		if _, err := cl.SyncSite(ctx, siteName); err != nil {
			return nil, 0, fmt.Errorf("initial sync: %w", err)
		}
	}
	elapsed := time.Since(start)
	f.truth = newTruth(prod)
	f.ranked = rankings(pc.Seed, f.truth, subscribedClosure(f))
	for _, c := range w.clients {
		for _, s := range c.deck {
			if p := s.kind.pool(); p != poolNone && len(f.ranked[p]) == 0 {
				return nil, 0, fmt.Errorf("product %+v has no targets for %s", pc, w.name)
			}
		}
	}
	if w.warm {
		f.cache = pdmtune.NewCache(0)
	}
	return f, elapsed, nil
}

// halfOfRoot picks the subscribed subtrees: the first half (rounded up)
// of the root's visible children and of its hidden ones, so reads of
// the remaining visible subtrees fall through to the primary.
func halfOfRoot(p *pdmtune.Product) []int64 {
	var vis, hid []int64
	for _, c := range p.Nodes[p.RootID].Children {
		if p.Nodes[c].LinkVis {
			vis = append(vis, c)
		} else {
			hid = append(hid, c)
		}
	}
	return append(vis[:(len(vis)+1)/2], hid[:(len(hid)+1)/2]...)
}

// sample is one completed or failed action.
type sample struct {
	client int
	label  string
	dur    time.Duration
}

// client is one closed-loop client: its session, its fixed sequence
// and a cursor into it that persists across phases.
type client struct {
	idx    int
	spec   clientSpec
	f      *fixture
	sess   *pdmtune.Session
	ctx    context.Context // carries the recorder in the traced phase
	seq    []op
	cursor int
	eco    int // ECO counter, alternates the state an ECO writes
	rec    *recorder

	samples []sample
	n       counters
	errs    []string // action errors other than first-wins conflicts
	bad     []string // results that disagree with the ground truth
}

// counters are a client's running totals; a phase reports their growth.
type counters struct {
	failed    int
	conflicts int
	denied    int // check-outs the check-out rule refused
	visible   int // sum of ActionResult.Visible
	syncRows  int // sum of SyncStats.Rows
}

func (a counters) sub(b counters) counters {
	return counters{a.failed - b.failed, a.conflicts - b.conflicts, a.denied - b.denied, a.visible - b.visible, a.syncRows - b.syncRows}
}

func (a counters) add(b counters) counters {
	return counters{a.failed + b.failed, a.conflicts + b.conflicts, a.denied + b.denied, a.visible + b.visible, a.syncRows + b.syncRows}
}

// open opens the client's session against the fixture.
func (c *client) open() error {
	opts := append([]pdmtune.Option(nil), c.spec.opts...)
	if c.f.cache != nil {
		opts = append(opts, pdmtune.WithSharedCache(c.f.cache))
	}
	var err error
	if c.spec.atSite {
		c.sess, err = c.f.cl.OpenAt(context.Background(), siteName, opts...)
	} else {
		c.sess, err = c.f.cl.Primary().Open(opts...)
	}
	return err
}

// act runs one action, times it and records its outcome. A first-wins
// *ConflictError is a completed action; any other error is a failure.
func (c *client) act(ctx context.Context, label string, object int64, fn func(context.Context) error) error {
	if c.rec != nil {
		c.rec.begin(label, object)
	}
	start := time.Now()
	err := fn(ctx)
	end := time.Now()
	if c.rec != nil {
		c.rec.end(start, end)
	}
	c.samples = append(c.samples, sample{client: c.idx, label: label, dur: end.Sub(start)})
	var conflict *pdmtune.ConflictError
	switch {
	case err == nil:
	case errors.As(err, &conflict):
		c.n.conflicts++
	default:
		c.n.failed++
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", label, err))
	}
	return err
}

func (c *client) mismatch(label string, target int64, got, want int) {
	c.bad = append(c.bad, fmt.Sprintf("client %d %s %d: got %d, want %d", c.idx, label, target, got, want))
}

// run executes one slot of the sequence and checks every result
// against the ground truth.
func (c *client) run(ctx context.Context, o op) {
	s, t := c.sess, c.f.truth
	switch o.kind {
	case opMLE:
		_ = c.act(ctx, "mle", o.target, func(ctx context.Context) error {
			res, err := s.MultiLevelExpand(ctx, o.target)
			if err == nil {
				c.n.visible += res.Visible
			}
			if err == nil && res.Visible != t.visibleBelow[o.target] {
				c.mismatch("mle", o.target, res.Visible, t.visibleBelow[o.target])
			}
			return err
		})
	case opExpand:
		_ = c.act(ctx, "expand", o.target, func(ctx context.Context) error {
			res, err := s.Expand(ctx, o.target)
			if err == nil {
				c.n.visible += res.Visible
			}
			if err == nil && res.Visible != t.visibleChildren[o.target] {
				c.mismatch("expand", o.target, res.Visible, t.visibleChildren[o.target])
			}
			return err
		})
	case opWhereUsed:
		_ = c.act(ctx, "where-used", o.target, func(ctx context.Context) error {
			res, err := s.WhereUsed(ctx, o.target)
			if err == nil {
				c.n.visible += res.Visible
			}
			if err == nil && res.Visible != t.level[o.target] {
				c.mismatch("where-used", o.target, res.Visible, t.level[o.target])
			}
			return err
		})
	case opCheckPair:
		c.pair(ctx, "check", o.target, s.CheckOut, s.CheckIn)
	case opProcPair:
		c.pair(ctx, "proc", o.target, s.CheckOutViaProcedure, s.CheckInViaProcedure)
	case opECO:
		c.eco++
		state := "revised"
		if c.eco%2 == 0 {
			state = "released"
		}
		_ = c.act(ctx, "eco", o.target, func(ctx context.Context) error {
			res, err := s.ECOPropagate(ctx, o.target, state)
			if err == nil && len(res.Affected) != t.level[o.target] {
				c.mismatch("eco", o.target, len(res.Affected), t.level[o.target])
			}
			return err
		})
	case opSync:
		_ = c.act(ctx, "sync", 0, func(ctx context.Context) error {
			st, err := c.f.cl.SyncSite(ctx, siteName)
			c.n.syncRows += st.Rows
			return err
		})
	}
}

type checkFunc func(context.Context, int64) (*pdmtune.CheckOutResult, error)

// pair checks a subtree out and back in. A granted check-out flips the
// whole visible subtree; the check-in then releases exactly the rows
// the check-out took — none when the check-out was denied (the other
// client held part of the subtree) or lost a first-wins race.
func (c *client) pair(ctx context.Context, kind string, target int64, out, in checkFunc) {
	took := -1
	_ = c.act(ctx, kind+"-out", target, func(ctx context.Context) error {
		res, err := out(ctx, target)
		var conflict *pdmtune.ConflictError
		switch {
		case errors.As(err, &conflict):
			took = 0
		case err != nil:
		case res.Granted:
			took = res.Updated
			if want := 1 + c.f.truth.visibleBelow[target]; res.Updated != want {
				c.mismatch(kind+"-out", target, res.Updated, want)
			}
		default:
			took = 0
			c.n.denied++
			if res.Updated != 0 {
				c.mismatch(kind+"-out denied", target, res.Updated, 0)
			}
		}
		return err
	})
	_ = c.act(ctx, kind+"-in", target, func(ctx context.Context) error {
		res, err := in(ctx, target)
		if err == nil && took >= 0 && res.Updated != took {
			c.mismatch(kind+"-in", target, res.Updated, took)
		}
		return err
	})
}

// phase is what one timed stretch of the closed loop measured.
type phase struct {
	samples  []sample
	makespan time.Duration
	took     []time.Duration // per client
	mallocs  uint64
	metrics  pdmtune.Metrics // every session's traffic plus the site's pulls
	pulls    pdmtune.Metrics // the site's pulls alone
	n        counters
}

func (p *phase) actions() int { return len(p.samples) }

// slots is how many slots a client runs in a phase of length d: its
// rate times d, rounded to whole decks, at least one.
func slots(spec clientSpec, d time.Duration) int {
	deck := deckLen(spec.deck)
	n := int(spec.rate*d.Seconds()/float64(deck)+0.5) * deck
	if n < deck {
		n = deck
	}
	return n
}

// traffic sums the traffic of the clients' sessions, and returns the
// site's replication pulls on their own.
func traffic(f *fixture, cs []*client) (sessions, pulls pdmtune.Metrics) {
	for _, c := range cs {
		sessions = sessions.Add(c.sess.Metrics())
	}
	if site, ok := f.cl.Site(siteName); ok {
		pulls = site.Metrics()
	}
	return sessions, pulls
}

// drive runs the closed loop: each client issues its next slot only
// after the previous one completed. A client runs a fixed number of
// slots, its rate times d, so a seed fixes exactly which actions a
// phase measures.
func drive(f *fixture, cs []*client, d time.Duration) *phase {
	sessions0, pulls0 := traffic(f, cs)
	first, n0 := make([]int, len(cs)), make([]counters, len(cs))
	for i, c := range cs {
		first[i], n0[i] = len(c.samples), c.n
	}
	// Every phase starts right after a collection, so the number of
	// collections inside it follows from what it allocates, not from
	// where the previous phase left the collector.
	runtime.GC()
	m0 := mallocs()
	p := &phase{took: make([]time.Duration, len(cs))}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for n := slots(c.spec, d); n > 0; n-- {
				c.run(c.ctx, c.seq[c.cursor%len(c.seq)])
				c.cursor++
			}
			p.took[i] = time.Since(start)
		}(i, c)
	}
	wg.Wait()
	p.makespan, p.mallocs = time.Since(start), mallocs()-m0
	sessions, pulls := traffic(f, cs)
	p.pulls = pulls.Sub(pulls0)
	p.metrics = sessions.Sub(sessions0).Add(p.pulls)
	for i, c := range cs {
		p.samples = append(p.samples, c.samples[first[i]:]...)
		p.n = p.n.add(c.n.sub(n0[i]))
	}
	return p
}

// warm runs every distinct read of both clients' sequences once, each
// client on its own goroutine, so the timed phase finds the shared
// cache holding all of them.
func warm(cs []*client) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			seen := map[op]bool{}
			for _, o := range c.seq {
				if !seen[o] {
					seen[o] = true
					c.run(c.ctx, o)
				}
			}
			c.samples = c.samples[:0]
		}(c)
	}
	wg.Wait()
}
