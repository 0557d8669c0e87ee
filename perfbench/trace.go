package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rumor/internal/service"
)

// Layers, named after the repository's modules.
const (
	layerGraph      = "graph"
	layerCore       = "core"
	layerService    = "service"
	layerCachestore = "cachestore"
	layerClient     = "client"
)

var layers = []string{layerGraph, layerCore, layerService, layerCachestore, layerClient}

// span is one timed call across a layer boundary. Parent 0 is a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced passes run the same
// code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(layer, name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval that its children cover (overlapping children counted
// once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.dur() - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of s's interval the union of kids spans.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
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

// tracedStore is a timing decorator around the result store the
// scheduler runs against. Each Get/Put becomes a cachestore span under
// the span of the job that owns the cell's key.
type tracedStore struct {
	inner service.ResultStore
	tr    *tracer

	mu     sync.Mutex
	owner  map[string]int32 // cell key -> job span
	getDur []time.Duration
	putDur []time.Duration
}

func newTracedStore(inner service.ResultStore, tr *tracer) *tracedStore {
	return &tracedStore{inner: inner, tr: tr, owner: map[string]int32{}}
}

// own attributes the cells' store calls to the job span.
func (s *tracedStore) own(cells []service.CellSpec, jobSpan int32) {
	s.mu.Lock()
	for _, c := range cells {
		s.owner[c.Key()] = jobSpan
	}
	s.mu.Unlock()
}

func (s *tracedStore) parent(key string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owner[key]
}

func (s *tracedStore) Get(key string) (*service.CellResult, bool) {
	id := s.tr.begin(layerCachestore, "get", s.parent(key))
	t0 := time.Now()
	res, ok := s.inner.Get(key)
	d := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.getDur = append(s.getDur, d)
	s.mu.Unlock()
	return res, ok
}

func (s *tracedStore) Put(key string, res *service.CellResult) {
	id := s.tr.begin(layerCachestore, "put", s.parent(key))
	t0 := time.Now()
	s.inner.Put(key, res)
	d := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.putDur = append(s.putDur, d)
	s.mu.Unlock()
}

func (s *tracedStore) Stats() service.CacheStats { return s.inner.Stats() }

// spanCursor carries the span a client goroutine is in, so the
// transport can parent its round trips and body reads under it.
type spanCursor struct{ parent int32 }

type cursorKey struct{}

func withCursor(ctx context.Context, c *spanCursor) context.Context {
	return context.WithValue(ctx, cursorKey{}, c)
}

// tracedTransport times the HTTP boundary between the SDK and the
// server: each round trip (until response headers) and each read of a
// response body is a service span, since the client is blocked on the
// server for that time.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	cur, _ := req.Context().Value(cursorKey{}).(*spanCursor)
	if cur == nil {
		return t.inner.RoundTrip(req)
	}
	id := t.tr.begin(layerService, "http."+req.Method, cur.parent)
	resp, err := t.inner.RoundTrip(req)
	t.tr.end(id)
	if err == nil {
		resp.Body = &tracedBody{ReadCloser: resp.Body, tr: t.tr, cur: cur}
	}
	return resp, err
}

type tracedBody struct {
	io.ReadCloser
	tr  *tracer
	cur *spanCursor
}

func (b *tracedBody) Read(p []byte) (int, error) {
	id := b.tr.begin(layerService, "http.read", b.cur.parent)
	n, err := b.ReadCloser.Read(p)
	b.tr.end(id)
	return n, err
}
