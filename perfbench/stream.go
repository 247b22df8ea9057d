package main

import (
	"fmt"
	"math/bits"
	"strconv"
)

// splitmix64 is the splitmix64 finalizer: the stream's only source of
// randomness, so query i is a pure function of (seed, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix hashes a tagged index under the stream seed.
func mix(seed int64, tag, i uint64) uint64 {
	return splitmix64(uint64(seed) ^ splitmix64(tag^splitmix64(i)))
}

// Query kinds, one per query endpoint of the service.
const (
	kindDistance = iota
	kindPath
	kindStretch
	numKinds
)

var kindPaths = [numKinds]string{"/distance", "/path", "/stretch"}

// Query is one request of the stream: the distance, the path or the
// realised stretch from U to V in the served spanner.
type Query struct {
	Kind uint8
	U, V int32
}

// URL is the request path the client sends for q.
func (q Query) URL() string {
	return kindPaths[q.Kind] + "?u=" + strconv.Itoa(int(q.U)) + "&v=" + strconv.Itoa(int(q.V))
}

// Stream is a workload's seeded query stream, shaped like the
// repository's own serve.QueryAt traffic: every query's kind is one of
// the three, equally likely; a share HotShare of the queries is "hot",
// with its source drawn from the first HotSources vertices and its
// target from the first HotTargets, as serve.QueryAt draws them, so
// the hot set is the same for every seed; every other query is a "cold" pair
// taken from a seeded permutation of all n² ordered pairs, indexed by
// the query's own position, so cold pairs never repeat within the
// stream.
type Stream struct {
	Seed       int64
	N          int
	HotShare   float64
	HotSources int
	HotTargets int
}

// Stream tags keep the hash families of the different draws apart.
const (
	tagPick = iota + 1
	tagKind
	tagPerm
)

// Validate reports a stream that cannot be drawn.
func (s Stream) Validate(count int) error {
	if s.N < 2 {
		return fmt.Errorf("stream: need at least 2 vertices, have %d", s.N)
	}
	if s.HotShare > 0 && (s.HotSources < 1 || s.HotTargets < 1 || s.HotSources > s.N || s.HotTargets > s.N) {
		return fmt.Errorf("stream: hot share %g needs 1 to %d hot sources and targets, have %d and %d",
			s.HotShare, s.N, s.HotSources, s.HotTargets)
	}
	if uint64(count) > uint64(s.N)*uint64(s.N) {
		return fmt.Errorf("stream: %d queries exceed the %d distinct pairs", count, s.N*s.N)
	}
	return nil
}

// At returns query i.
func (s Stream) At(i int) Query {
	kind := uint8(mix(s.Seed, tagKind, uint64(i)) % numKinds)
	h := mix(s.Seed, tagPick, uint64(i))
	if float64(h>>11)/(1<<53) < s.HotShare {
		h = splitmix64(h)
		u := int32(h % uint64(s.HotSources))
		h = splitmix64(h)
		return Query{Kind: kind, U: u, V: int32(h % uint64(s.HotTargets))}
	}
	n := uint64(s.N)
	p := s.permute(uint64(i))
	return Query{Kind: kind, U: int32(p / n), V: int32(p % n)}
}

// Hot lists every distinct hot query: each hot source with each hot
// target, in each kind.
func (s Stream) Hot() []Query {
	if s.HotShare <= 0 {
		return nil
	}
	var out []Query
	for u := int32(0); u < int32(s.HotSources); u++ {
		for v := int32(0); v < int32(s.HotTargets); v++ {
			for k := uint8(0); k < numKinds; k++ {
				out = append(out, Query{Kind: k, U: u, V: v})
			}
		}
	}
	return out
}

// permute maps i < n² to a pair index in [0, n²): a seeded bijection
// on the smallest power-of-two domain holding n² (rounds of an odd
// multiply, an add and an xorshift, each invertible), cycle-walked
// back into range. Distinct i give distinct pairs, in a pseudo-random
// order.
func (s Stream) permute(i uint64) uint64 {
	size := uint64(s.N) * uint64(s.N)
	width := uint(bits.Len64(size - 1))
	mask := uint64(1)<<width - 1
	mul, add := mix(s.Seed, tagPerm, 0)|1, mix(s.Seed, tagPerm, 1)
	x := i
	for {
		for r := 0; r < 3; r++ {
			x = (x*mul + add) & mask
			x ^= x >> (width/2 + 1)
		}
		if x < size {
			return x
		}
	}
}

// Shares measures the traffic mix of a query segment sent after the
// queries prior: the share of its queries whose (kind,u,v) was sent
// before, in prior or earlier in the segment, and the share whose
// source was.
func Shares(prior, qs []Query) (repeat, source float64) {
	if len(qs) == 0 {
		return 0, 0
	}
	pairs := make(map[Query]bool, len(prior)+len(qs))
	srcs := make(map[int32]bool)
	for _, q := range prior {
		pairs[q], srcs[q.U] = true, true
	}
	var rep, src int
	for _, q := range qs {
		if pairs[q] {
			rep++
		}
		if srcs[q.U] {
			src++
		}
		pairs[q], srcs[q.U] = true, true
	}
	return float64(rep) / float64(len(qs)), float64(src) / float64(len(qs))
}
