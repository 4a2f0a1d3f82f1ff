package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvod"
)

// span is one timed interval recorded by the harness around a call into the
// program. Spans of one request share its list index as Request; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	// Tag carries the serving node of a cluster span: the tier attribution
	// visible from outside the program (home vs remote).
	Tag     string `json:"tag,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Only harness code records
// spans; spans inside the program are a later change.
type tracer struct {
	enabled atomic.Bool
	// bytes is the clients' payload progress, read at segment boundaries.
	bytes  atomic.Int64
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) on() bool    { return t != nil && t.enabled.Load() }
func (t *tracer) set(on bool) { t.enabled.Store(on) }

func (t *tracer) rel(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) add(batch []span) {
	t.mu.Lock()
	t.spans = append(t.spans, batch...)
	t.mu.Unlock()
}

// watch records one completed watch: the root, its startup and stream halves,
// and one cluster span per arrival (from the previous arrival to this one).
// It also appends the inter-arrival gaps to gapsUS.
func (t *tracer) watch(request, clientID int, begin time.Time, st dvod.PlaybackStats, gapsUS []float64) []float64 {
	n := int64(len(st.Records))
	base := t.nextID.Add(3+n) - (3 + n)
	root, startup, stream := base+1, base+2, base+3
	b := t.rel(begin)
	first := b + st.StartupDelay.Nanoseconds()
	end := b + st.Elapsed.Nanoseconds()
	name := fmt.Sprintf("client-%d", clientID)
	batch := make([]span, 0, 3+n)
	batch = append(batch,
		span{ID: root, Name: "watch", Request: request, Tag: name, StartNS: b, EndNS: end},
		span{ID: startup, Parent: root, Name: "watch.startup", Request: request, StartNS: b, EndNS: first},
		span{ID: stream, Parent: root, Name: "watch.stream", Request: request, StartNS: first, EndNS: end},
	)
	prev := first
	for i, rec := range st.Records {
		at := t.rel(rec.ArrivedAt)
		if i > 0 {
			batch = append(batch, span{ID: stream + int64(i), Parent: stream, Name: "cluster",
				Request: request, Tag: string(rec.Source), StartNS: prev, EndNS: at})
			gapsUS = append(gapsUS, float64(at-prev)/1e3)
		}
		prev = at
	}
	t.add(batch)
	return gapsUS
}

// probe records one timed probe sample.
func (t *tracer) probe(name string, begin, end time.Time) {
	if t == nil {
		return
	}
	t.add([]span{{ID: t.nextID.Add(1), Name: "probe." + name, Request: -1, StartNS: t.rel(begin), EndNS: t.rel(end)}})
}

// spanTotals is the per-name roll-up printed after a traced run.
type spanTotals struct {
	Name            string
	Count           int
	TotalMS, SelfMS float64
}

// selfTimes rolls spans up by name. A span's self time is its duration minus
// the part of that interval its child spans cover (children of one parent do
// not overlap here, so covered time is their summed length clipped to the
// parent).
func selfTimes(spans []span) []spanTotals {
	covered := make(map[int64]int64, len(spans)/2)
	bounds := make(map[int64][2]int64, len(spans))
	for _, s := range spans {
		bounds[s.ID] = [2]int64{s.StartNS, s.EndNS}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := bounds[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartNS, p[0]), min(s.EndNS, p[1])
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	byName := map[string]*spanTotals{}
	for _, s := range spans {
		tot := byName[s.Name]
		if tot == nil {
			tot = &spanTotals{Name: s.Name}
			byName[s.Name] = tot
		}
		dur := s.EndNS - s.StartNS
		tot.Count++
		tot.TotalMS += float64(dur) / 1e6
		tot.SelfMS += float64(max(dur-covered[s.ID], 0)) / 1e6
	}
	out := make([]spanTotals, 0, len(byName))
	for _, tot := range byName {
		out = append(out, *tot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps the spans as JSON lines to <dir>/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
