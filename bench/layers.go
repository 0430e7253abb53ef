package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/nn"
)

// span is one traced call: name, start, end and the span that caused it.
// Spans of one request or image share their root's id as Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was made.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span under parent (0 for a root) and returns its id.
func (t *tracer) add(parent int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// finish sets the end of a span recorded before its call returned.
func (t *tracer) finish(id int64, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTally accumulates one layer's MVM spans and ECU outcomes.
type layerTally struct {
	mvms  int
	busy  time.Duration
	stats accel.Stats
}

// accelPass is the offline per-layer pass over a workload's engine. On one
// goroutine it evaluates each image twice under the same noise stream: once
// with Session.Forward (untraced) and once through nn.Network.ForwardWith
// with MVM funcs that wrap Session.MVMLayer in spans (traced), which keeps
// Session.Forward's draw order. Both must give the same logits and stats.
// Then it times one 16-image Session.ForwardBatch after a warm-up batch.
type accelPass struct {
	images     int
	layers     map[int]*layerTally
	plain      time.Duration // Σ Session.Forward
	traced     time.Duration // Σ traced forward
	nnSelf     time.Duration // Σ traced forward minus its MVM spans
	batch16    time.Duration // one 16-image ForwardBatch
	rowReads   uint64
	mismatches int
}

const batchImages = 16

func runAccelPass(eng *accel.Engine, xs []*nn.Tensor, streams []uint64, tr *tracer) (*accelPass, error) {
	if len(xs) < batchImages {
		return nil, fmt.Errorf("accel pass needs %d images, have %d", batchImages, len(xs))
	}
	p := &accelPass{images: len(xs), layers: map[int]*layerTally{}}
	sess := eng.NewSession(0)
	defer sess.Close()
	net := eng.InferenceNet()
	mvms := make([]nn.MVMFunc, len(net.Layers))
	var parent int64
	var children []interval
	for _, li := range eng.Layers() {
		li, t, name := li, &layerTally{}, fmt.Sprintf("accel.L%d.mvm", li)
		p.layers[li] = t
		mvms[li] = func(x []float64) []float64 {
			start := time.Now()
			out, st := sess.MVMLayer(li, x)
			end := time.Now()
			tr.add(parent, name, start, end)
			children = append(children, interval{start.UnixNano(), end.UnixNano()})
			t.mvms++
			t.busy += end.Sub(start)
			t.stats.Merge(st)
			return out
		}
	}
	for k, x := range xs {
		sess.Reseed(streams[k])
		sess.DrainStats()
		start := time.Now()
		want := slices.Clone(sess.Forward(x).Data)
		p.plain += time.Since(start)
		wantStats := sess.DrainStats()

		sess.Reseed(streams[k])
		children = children[:0]
		start = time.Now()
		parent = tr.add(0, "nn.forward", start, start)
		got := net.ForwardWith(x, mvms)
		end := time.Now()
		tr.finish(parent, end)
		p.traced += end.Sub(start)
		p.nnSelf += selfTime(interval{start.UnixNano(), end.UnixNano()}, children)
		gotStats := sess.DrainStats()
		p.rowReads += gotStats.RowReads
		if !slices.Equal(want, got.Data) || wantStats != gotStats {
			p.mismatches++
		}
	}
	bx, bs := xs[:batchImages], streams[:batchImages]
	sess.ForwardBatch(bx, bs) // arms the batch arena
	start := time.Now()
	_, errs := sess.ForwardBatch(bx, bs)
	p.batch16 = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("accel pass: ForwardBatch: %w", err)
		}
	}
	return p, nil
}

// metrics reports the accel, nn and trace per-layer metrics.
func (p *accelPass) metrics() map[string]float64 {
	n := float64(p.images)
	m := map[string]float64{
		"accel.forward_ms_per_img":         ms(p.plain) / n,
		"accel.forward_batch16_ms_per_img": ms(p.batch16) / batchImages,
		"accel.rowreads_per_img":           float64(p.rowReads) / n,
		"nn.self_ms_per_img":               ms(p.nnSelf) / n,
		"trace.overhead_pct":               100 * (p.traced.Seconds()/p.plain.Seconds() - 1),
	}
	for li, t := range p.layers {
		pre := fmt.Sprintf("accel.L%d.", li)
		mv, groups := float64(max(t.mvms, 1)), float64(max(t.stats.GroupReads(), 1))
		m[pre+"ms_per_mvm"] = ms(t.busy) / mv
		m[pre+"mvms_per_img"] = float64(t.mvms) / n
		m[pre+"rowreads_per_mvm"] = float64(t.stats.RowReads) / mv
		m[pre+"ns_per_rowread"] = float64(t.busy.Nanoseconds()) / float64(max(t.stats.RowReads, 1))
		m[pre+"corrected_share"] = float64(t.stats.Corrected) / groups
		m[pre+"detected_share"] = float64(t.stats.Detected) / groups
		m[pre+"retries_per_mvm"] = float64(t.stats.Retries) / mv
	}
	return m
}

// mapLayerTimes times accel.MapLayers on each mapped layer alone.
func mapLayerTimes(st *stack) (map[string]float64, error) {
	m := map[string]float64{}
	for _, li := range st.eng.Layers() {
		start := time.Now()
		if _, err := accel.MapLayers(st.net, st.cfg, []int{li}); err != nil {
			return nil, err
		}
		m[fmt.Sprintf("setup.map.L%d_s", li)] = time.Since(start).Seconds()
	}
	return m, nil
}
