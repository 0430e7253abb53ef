package accel

import (
	"fmt"

	"repro/internal/nn"
)

// replicaSeedStride separates the engine seeds of sibling replicas. Every
// seed-derived stream in a replica's lifetime — map-time fault injection,
// session noise, remap epochs, verify draws — is keyed off the engine seed,
// so offsetting it gives the copy a fully independent error process. The
// stride sits far above user seeds and below nothing that matters (engine
// seeds are stream roots, not session streams, so the serve-side stride
// constants do not apply here).
const replicaSeedStride = uint64(1) << 48

// Replicate programs the same network onto a fresh, independent set of
// crossbar arrays: the full mapping pipeline reruns under an offset engine
// seed, so the copy draws its own stuck-cell population, its own A codes
// where the search is fault-driven, and later its own noise and remap
// streams. Replica 0 is the receiver itself.
func (e *Engine) Replicate(replica uint64) (*Engine, error) {
	if replica == 0 {
		return e, nil
	}
	cfg := e.cfg
	cfg.Seed = e.cfg.Seed + replica*replicaSeedStride
	return MapLayers(e.net, cfg, e.partition)
}

// Partition returns a view engine restricted to the given mapped layers: a
// shard. The view shares the receiver's layer slots (no re-programming), so
// a Remap, Retune, or fallback flip through either engine is visible to
// both — the partition is an ownership boundary, not a copy. Replicate on
// the view programs fresh arrays for only the partition's layers, which is
// what gives each shard an independently replaceable reliability stack.
func (e *Engine) Partition(layers []int) (*Engine, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("accel: empty partition")
	}
	p := &Engine{
		cfg:       e.cfg,
		net:       e.net,
		slots:     make([]*layerSlot, len(e.slots)),
		partition: append([]int(nil), layers...),
	}
	for _, li := range layers {
		sl := e.slot(li)
		if sl == nil {
			return nil, fmt.Errorf("accel: partition layer %d is not mapped", li)
		}
		if p.slots[li] != nil {
			return nil, fmt.Errorf("accel: partition layer %d listed twice", li)
		}
		p.slots[li] = sl
		p.mapped++
		sl.mu.RLock()
		p.PhysicalRows += sl.m.PhysicalRows
		sl.mu.RUnlock()
	}
	return p, nil
}

// InferenceNet returns a buffer-reusing forward-pass clone of the mapped
// network, for callers that compose their own per-layer MVM routing (the
// replica router). The clone shares immutable weights with the original.
func (e *Engine) InferenceNet() *nn.Network {
	n := e.net.CloneForInference()
	n.EnableBufferReuse()
	return n
}
