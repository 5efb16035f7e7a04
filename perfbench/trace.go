package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdmtune"
	"pdmtune/internal/minisql"
	"pdmtune/internal/wire"
)

// The traced run records spans from outside the program: around the
// Session and Cluster.SyncSite calls the clients make, and around every
// round trip through a transport decorator installed with
// Cluster.SetTransportWrapper. A round trip finds the span that caused
// it through the context the action was called with.

// span is one timed interval of the traced phase.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // the action span a round trip belongs to
	Client int    `json:"client"`
	Name   string `json:"name"` // action label, or "rt"
	Object int64  `json:"object,omitempty"`
	Target string `json:"target,omitempty"` // server of a round trip
	Frame  string `json:"frame,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	Req    int    `json:"req_bytes,omitempty"`
	Resp   int    `json:"resp_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// frame is one request body a traced round trip carried, kept for the
// engine replay.
type frame struct {
	conn *tracedTransport
	at   int64
	body []byte
}

// recorder holds one client's spans. Only the client's goroutine
// writes to it: the client's actions and the round trips they cause
// all run there.
type recorder struct {
	client int
	epoch  time.Time
	ids    *atomic.Int64
	cur    int64 // the open action span, 0 between actions
	label  string
	object int64
	spans  []span
	frames []frame
}

type recorderKey struct{}

func (r *recorder) context() context.Context {
	return context.WithValue(context.Background(), recorderKey{}, r)
}

func (r *recorder) begin(label string, object int64) {
	r.cur, r.label, r.object = r.ids.Add(1), label, object
}

func (r *recorder) end(start, end time.Time) {
	r.spans = append(r.spans, span{ID: r.cur, Client: r.client, Name: r.label, Object: r.object,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	r.cur = 0
}

// tracedTransport is the decorator: it times each round trip of the
// transport it wraps, which for the in-process simulation is the
// server's handling of the frame plus its metering.
type tracedTransport struct {
	inner  pdmtune.Transport
	target string

	mu      sync.Mutex
	handles map[uint32]string // prepared handle → SQL text on this connection
}

func (t *tracedTransport) RoundTrip(ctx context.Context, request []byte) ([]byte, error) {
	rec, _ := ctx.Value(recorderKey{}).(*recorder)
	if rec == nil {
		return t.inner.RoundTrip(ctx, request)
	}
	kind := frameName(unfence(request))
	var body []byte
	if kind == "exec" || kind == "batch" || kind == "prepare" {
		// Kept for the replay; the client may recycle the request buffer
		// once the call returns.
		body = append([]byte(nil), request...)
	}
	start := time.Now()
	response, err := t.inner.RoundTrip(ctx, request)
	end := time.Now()
	rec.spans = append(rec.spans, span{ID: rec.ids.Add(1), Parent: rec.cur, Client: rec.client, Name: "rt",
		Target: t.target, Frame: kind, Start: int64(start.Sub(rec.epoch)), End: int64(end.Sub(rec.epoch)),
		Req: len(request), Resp: len(response)})
	if body == nil {
		return response, err
	}
	rec.frames = append(rec.frames, frame{conn: t, at: int64(start.Sub(rec.epoch)), body: body})
	if inner := unfence(body); err == nil && inner[0] == wire.TypePrepare {
		sql, errSQL := wire.DecodePrepare(inner)
		h, errH := wire.DecodePrepareResp(response)
		if errSQL == nil && errH == nil {
			t.mu.Lock()
			t.handles[h] = sql
			t.mu.Unlock()
		}
	}
	return response, err
}

func (t *tracedTransport) sql(h uint32) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.handles[h]
	return s, ok
}

// unfence strips the fencing-term envelope clusters with sites put
// around write and sync frames.
func unfence(b []byte) []byte {
	if len(b) > 0 && b[0] == wire.TypeFenced {
		return wire.FencedInner(b)
	}
	return b
}

// frameName classifies a request frame by its type byte.
func frameName(b []byte) string {
	if len(b) == 0 {
		return "other"
	}
	switch b[0] {
	case wire.TypeRequest, wire.TypeExecPrepared:
		return "exec"
	case wire.TypeBatch:
		return "batch"
	case wire.TypeValidate:
		return "validate"
	case wire.TypeSync:
		return "sync"
	case wire.TypePrepare:
		return "prepare"
	}
	return "other"
}

// tracer installs the decorator on a cluster and hands out one
// recorder per client.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	recs  []*recorder
}

func newTracer(cl *pdmtune.Cluster, clients int) *tracer {
	tr := &tracer{epoch: time.Now()}
	for i := 0; i < clients; i++ {
		tr.recs = append(tr.recs, &recorder{client: i, epoch: tr.epoch, ids: &tr.ids})
	}
	cl.SetTransportWrapper(func(target string, inner pdmtune.Transport) pdmtune.Transport {
		return &tracedTransport{inner: inner, target: target, handles: map[uint32]string{}}
	})
	return tr
}

func (tr *tracer) spans() []span {
	var out []span
	for _, r := range tr.recs {
		out = append(out, r.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// maxWritten caps the spans written to the file: a warm-cache phase
// records millions, and the first ones show the same shapes.
const maxWritten = 200_000

// write stores the spans as JSON lines, at most maxWritten of them in
// start order.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := tr.spans()
	if len(spans) > maxWritten {
		spans = spans[:maxWritten]
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stmt is one read statement the traced phase shipped.
type stmt struct {
	db     *minisql.DB
	sql    string
	params []minisql.Value
}

// reads decodes every request frame the traced phase carried and
// returns its read statements in the order they were shipped. Writes
// are not replayed: their cost stays with the wire server spans.
func (tr *tracer) reads(dbs map[string]*minisql.DB) ([]stmt, error) {
	var frames []frame
	for _, r := range tr.recs {
		frames = append(frames, r.frames...)
	}
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].at < frames[j].at })
	var out []stmt
	for _, fr := range frames {
		body := unfence(fr.body)
		var reqs []*wire.Request
		switch {
		case len(body) == 0:
			continue
		case body[0] == wire.TypeRequest || body[0] == wire.TypeExecPrepared:
			req, err := wire.DecodeExec(body)
			if err != nil {
				return nil, fmt.Errorf("decode exec frame: %w", err)
			}
			reqs = []*wire.Request{req}
		case body[0] == wire.TypeBatch:
			var err error
			if reqs, err = wire.DecodeBatch(body); err != nil {
				return nil, fmt.Errorf("decode batch frame: %w", err)
			}
		default:
			continue
		}
		for _, req := range reqs {
			sql := req.SQL
			if req.Prepared {
				var ok bool
				if sql, ok = fr.conn.sql(req.Handle); !ok {
					return nil, fmt.Errorf("prepared handle %d was not prepared in the traced phase", req.Handle)
				}
			}
			if wire.ReadOnlySQL(sql) {
				out = append(out, stmt{db: dbs[fr.conn.target], sql: sql, params: req.Params})
			}
		}
	}
	return out, nil
}

// replay executes read statements through minisql.Session.Exec against
// the databases that served them, until all ran or budget is spent.
func replay(stmts []stmt, budget time.Duration) (int, time.Duration, error) {
	sessions := map[*minisql.DB]*minisql.Session{}
	var total time.Duration
	n := 0
	for _, s := range stmts {
		if total >= budget {
			break
		}
		sess := sessions[s.db]
		if sess == nil {
			sess = s.db.NewSession()
			sessions[s.db] = sess
		}
		start := time.Now()
		_, err := sess.Exec(s.sql, s.params...)
		total += time.Since(start)
		if err != nil {
			return n, total, fmt.Errorf("replay %q: %w", s.sql, err)
		}
		n++
	}
	return n, total, nil
}
