package main

import (
	"math"
	"testing"
)

func streamOf(t *testing.T, name string, seed int64) Stream {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return Stream{Seed: seed, N: w.n, HotShare: w.hotShare, HotSources: w.hotSources, HotTargets: w.hotTargets}
}

// Query i depends on (seed, i) alone: not on call order, not on any
// state, and a different seed gives a different stream.
func TestStreamIsPureFunctionOfSeedAndIndex(t *testing.T) {
	for _, w := range workloads {
		s := streamOf(t, w.name, 7)
		fwd := queries(s, 0, 2000)
		for i := len(fwd) - 1; i >= 0; i-- {
			if got := s.At(i); got != fwd[i] {
				t.Fatalf("%s: query %d is %v backwards, %v forwards", w.name, i, got, fwd[i])
			}
		}
		again := streamOf(t, w.name, 7)
		for i, q := range fwd {
			if again.At(i) != q {
				t.Fatalf("%s: query %d differs between equal streams", w.name, i)
			}
		}
		other := queries(streamOf(t, w.name, 8), 0, len(fwd))
		same := 0
		for i := range fwd {
			if fwd[i] == other[i] {
				same++
			}
		}
		if same > len(fwd)/10 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d queries", w.name, same, len(fwd))
		}
		for i, q := range fwd {
			if q.U < 0 || int(q.U) >= w.n || q.V < 0 || int(q.V) >= w.n || q.Kind >= numKinds {
				t.Fatalf("%s: query %d = %v out of range", w.name, i, q)
			}
		}
	}
}

// serve-cold exists to bypass the cache: no (u,v) pair may repeat.
func TestServeColdHasNoRepeatedPair(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		qs := queries(streamOf(t, "serve-cold", seed), 0, 200000)
		seen := make(map[[2]int32]bool, len(qs))
		for i, q := range qs {
			key := [2]int32{q.U, q.V}
			if seen[key] {
				t.Fatalf("seed %d: pair (%d,%d) repeats at query %d", seed, q.U, q.V, i)
			}
			seen[key] = true
		}
		if rep, _ := Shares(nil, qs); rep != 0 {
			t.Fatalf("seed %d: repeat share %g, want 0", seed, rep)
		}
	}
}

// serve-hot's measured mix matches its stated intent: after the
// warm-up has sent every hot query once, a share HotShare of the
// queries repeats one, and most sources were seen before. The hot set
// is serve.QueryAt's: the first 16 vertices as sources, the first 64
// as targets, three kinds, whatever the seed.
func TestServeHotSharesMatchIntent(t *testing.T) {
	w, _ := findWorkload("serve-hot")
	for _, seed := range []int64{1, 2, 99} {
		s := streamOf(t, "serve-hot", seed)
		hot := s.Hot()
		if len(hot) != 16*64*numKinds {
			t.Fatalf("seed %d: %d hot queries, want %d", seed, len(hot), 16*64*numKinds)
		}
		for _, q := range hot {
			if q.U >= 16 || q.V >= 64 {
				t.Fatalf("seed %d: hot query %v is outside the first 16 × 64 vertices", seed, q)
			}
		}
		const count = 20000
		rep, src := Shares(hot, queries(s, 0, count))
		if math.Abs(rep-w.hotShare) > 0.01 {
			t.Errorf("seed %d: repeat share %.4f, want %.2f±0.01", seed, rep, w.hotShare)
		}
		if src < w.hotShare {
			t.Errorf("seed %d: source share %.4f below the hot share %g", seed, src, w.hotShare)
		}
	}
}

// Each kind is a third of the stream, as in serve.QueryAt.
func TestStreamKindsEquallyLikely(t *testing.T) {
	for _, w := range workloads {
		var n [numKinds]int
		const count = 30000
		for _, q := range queries(streamOf(t, w.name, 5), 0, count) {
			n[q.Kind]++
		}
		for k, c := range n {
			if share := float64(c) / count; math.Abs(share-1.0/numKinds) > 0.01 {
				t.Errorf("%s: kind %s is %.4f of the stream", w.name, kindPaths[k], share)
			}
		}
	}
}

func TestStreamValidate(t *testing.T) {
	s := streamOf(t, "serve-hot", 1)
	if err := s.Validate(1000); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(s.N*s.N + 1); err == nil {
		t.Error("more queries than pairs accepted")
	}
}

// The cold-pair permutation is a bijection on [0, n²).
func TestPermuteIsBijection(t *testing.T) {
	for _, n := range []int{2, 3, 17, 100} {
		s := Stream{Seed: int64(n), N: n}
		seen := make([]bool, n*n)
		for i := 0; i < n*n; i++ {
			p := s.permute(uint64(i))
			if p >= uint64(n*n) || seen[p] {
				t.Fatalf("n=%d: permute(%d) = %d repeats or is out of range", n, i, p)
			}
			seen[p] = true
		}
	}
}
