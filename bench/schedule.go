package main

import (
	"math"
	"math/rand/v2"
	"time"
)

// request is one scheduled single-image Predict call.
type request struct {
	due  time.Duration // offset from the start of the timed window
	img  int           // index into the workload's image pool
	seed uint64        // noise stream the request asks for
}

// RNG streams drawn from the workload seed, one per schedule property, so
// changing how one property is drawn leaves the others alone.
const (
	streamArrivals = 1
	streamImages   = 2
)

// arrivalBlock is how many consecutive gaps form one stratum.
const arrivalBlock = 10

// arrivals returns n arrival offsets over [0, span). Gap sizes follow the
// exponential distribution of a Poisson process, stratified in blocks of
// arrivalBlock consecutive gaps: a block's gaps are the distribution's
// quantiles at (k+½)/b, and in each block the shorter half takes the even
// places and the longer half the odd places, each half in a seeded order.
// The n+1 gaps (the last runs from the final arrival to the end of the
// span) are scaled to fill the span.
//
// This is more regular than a Poisson process, on purpose. Every block
// ends at the same time under every seed, so every seed offers the same
// load over every ten arrivals, and no two short gaps are adjacent, so no
// seed draws a cluster of three close arrivals. Seeds differ in the order
// of the gaps within blocks. With a few hundred requests, or a dozen
// bursts whose requests share one coalesced pass and so one latency, an
// unstratified draw would decide p95 by how many clusters a seed happened
// to contain, and the remap workload's p95 by how many requests its seed
// happened to place in the stall.
func arrivals(seed uint64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, streamArrivals))
	shuffle := func(xs []float64) { rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) }
	gaps := make([]float64, 0, n+1)
	total := 0.0
	for len(gaps) < n+1 {
		b := min(arrivalBlock, n+1-len(gaps))
		block := make([]float64, b)
		for k := range block {
			block[k] = -math.Log(1 - (float64(k)+0.5)/float64(b))
			total += block[k]
		}
		short, long := block[:(b+1)/2], block[(b+1)/2:]
		shuffle(short)
		shuffle(long)
		for i := 0; i < b; i++ {
			if i%2 == 0 {
				gaps = append(gaps, short[i/2])
			} else {
				gaps = append(gaps, long[i/2])
			}
		}
	}
	out := make([]time.Duration, n)
	at := 0.0
	for i := range out {
		at += gaps[i]
		out[i] = time.Duration(at / total * float64(span))
	}
	return out
}

// schedule builds an open-loop request stream: events arrivals over span,
// each releasing burst requests due at the same instant. Images are a
// seeded permutation of the pool [0, events*burst), so each image is sent
// exactly once, and every request gets its own noise stream.
func schedule(seed uint64, events, burst int, span time.Duration) []request {
	n := events * burst
	perm := rand.New(rand.NewPCG(seed, streamImages)).Perm(n)
	reqs := make([]request, 0, n)
	for e, at := range arrivals(seed, events, span) {
		for b := 0; b < burst; b++ {
			i := e*burst + b
			reqs = append(reqs, request{due: at, img: perm[i], seed: requestSeed(seed, i)})
		}
	}
	return reqs
}

// requestSeed is request i's noise stream.
func requestSeed(seed uint64, i int) uint64 { return seed*1_000_000 + uint64(i) + 1 }

// closedPool returns n requests for a closed-loop run, which sends them in
// order for as long as its window lasts. Images cycle through a seeded
// permutation of the pool [0, images), and every request has its own noise
// stream. Due times are filled in when each request is sent.
func closedPool(seed uint64, n, images int) []request {
	perm := rand.New(rand.NewPCG(seed, streamImages)).Perm(images)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{img: perm[i%images], seed: requestSeed(seed, i)}
	}
	return reqs
}
