package topology

import (
	"testing"

	"distws/internal/sim"
)

func TestHierarchicalLatencyOrdering(t *testing.T) {
	m := KComputer()
	// 8G over 1024 ranks: ranks 0..7 share node 0, 8..11 next node on
	// the same blade, etc.
	job, err := NewJob(m, 1024, EightGrouped)
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultLatency()

	sameNode := h.Latency(job, 0, 1, 0)
	var sameBlade, sameCube, crossCube, far sim.Duration
	for k := 8; k < 1024; k += 8 {
		p, q := job.Coord(0), job.Coord(k)
		switch {
		case SameBlade(p, q) && sameBlade == 0:
			sameBlade = h.Latency(job, 0, k, 0)
		case !SameBlade(p, q) && SameCube(p, q) && sameCube == 0:
			sameCube = h.Latency(job, 0, k, 0)
		case !SameCube(p, q) && crossCube == 0:
			crossCube = h.Latency(job, 0, k, 0)
		}
	}
	far = h.Latency(job, 0, 1016, 0)
	if sameBlade == 0 || sameCube == 0 || crossCube == 0 {
		t.Fatal("test setup: did not find all hierarchy levels")
	}
	if !(sameNode < sameBlade && sameBlade < sameCube && sameCube < crossCube) {
		t.Fatalf("latency ordering violated: node=%v blade=%v cube=%v cross=%v",
			sameNode, sameBlade, sameCube, crossCube)
	}
	if far < crossCube {
		t.Fatalf("far rank latency %v < nearest cross-cube latency %v", far, crossCube)
	}
}

func TestLatencySymmetry(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 256, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultLatency()
	for i := 0; i < 256; i += 17 {
		for k := 0; k < 256; k += 13 {
			if h.Latency(job, i, k, 64) != h.Latency(job, k, i, 64) {
				t.Fatalf("latency not symmetric for (%d,%d)", i, k)
			}
		}
	}
}

func TestBandwidthTerm(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 16, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	h := DefaultLatency()
	small := h.Latency(job, 0, 1, 0)
	big := h.Latency(job, 0, 1, 1<<20)
	// 1 MiB at 5 GB/s is ~210 µs.
	bytes := float64(1 << 20)
	wantExtra := sim.Duration(bytes / 5e9 * 1e9)
	if got := big - small; got < wantExtra-sim.Microsecond || got > wantExtra+sim.Microsecond {
		t.Fatalf("bandwidth term = %v, want ~%v", got, wantExtra)
	}
}

func TestUniformLatencyIgnoresPlacement(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 1024, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	u := &UniformLatency{Fixed: 5 * sim.Microsecond}
	base := u.Latency(job, 0, 1, 0)
	for k := 2; k < 1024; k += 97 {
		if u.Latency(job, 0, k, 0) != base {
			t.Fatalf("uniform latency varies with rank %d", k)
		}
	}
	if u.Latency(job, 0, 1, 1000) != base {
		t.Fatal("bandwidth term applied with zero BytesPerSecond")
	}
	u.BytesPerSecond = 1e9
	if u.Latency(job, 0, 1, 1000) <= base {
		t.Fatal("bandwidth term missing")
	}
}

func TestLatencyPositive(t *testing.T) {
	m := KComputer()
	for _, p := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
		job, err := NewJob(m, 64, p)
		if err != nil {
			t.Fatal(err)
		}
		h := DefaultLatency()
		for i := 0; i < 64; i++ {
			for k := 0; k < 64; k++ {
				if d := h.Latency(job, i, k, 0); d <= 0 {
					t.Fatalf("%v: non-positive latency %v between %d and %d", p, d, i, k)
				}
			}
		}
	}
}

func TestJitterLatencyBounds(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 64, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultLatency()
	j := NewJitterLatency(base, 0.2, 7)
	for i := 0; i < 5000; i++ {
		a, b := i%64, (i*31+1)%64
		d := j.Latency(job, a, b, 100)
		ref := base.Latency(job, a, b, 100)
		lo := sim.Duration(float64(ref) * 0.79)
		hi := sim.Duration(float64(ref) * 1.21)
		if d < lo || d > hi {
			t.Fatalf("jittered latency %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestJitterLatencyDeterministicStream(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 16, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	a := NewJitterLatency(DefaultLatency(), 0.3, 42)
	b := NewJitterLatency(DefaultLatency(), 0.3, 42)
	for i := 0; i < 1000; i++ {
		if a.Latency(job, 0, 1+i%15, 64) != b.Latency(job, 0, 1+i%15, 64) {
			t.Fatalf("same-seed jitter streams diverged at call %d", i)
		}
	}
}

func TestJitterLatencyNeverZero(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 4, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJitterLatency(&UniformLatency{Fixed: 1}, 0.9, 1)
	for i := 0; i < 1000; i++ {
		if d := j.Latency(job, 0, 1, 0); d < 1 {
			t.Fatalf("jittered latency %v below 1ns", d)
		}
	}
}

func TestJitterLatencyPanicsOnBadFrac(t *testing.T) {
	for _, frac := range []float64{-0.1, 1.0, 2.0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("frac %v accepted", frac)
				}
			}()
			NewJitterLatency(DefaultLatency(), frac, 1)
		}()
	}
}

// TestSendModelMatchesUncached is the exactness contract of the send
// model: for every rank pair of every placement, and a spread of payload
// sizes (including ones past the byte-table bound), the packed-coordinate
// model must return the bit-identical duration the plain model computes.
// The small machines make the torus wrap and size-1 dimensions occur.
func TestSendModelMatchesUncached(t *testing.T) {
	plain := DefaultLatency()
	sizes := []int{0, 1, 8, 16, 200, byteTableMax - 1, byteTableMax, 1 << 20}
	for _, m := range []Machine{KComputer(), {CubesX: 5, CubesY: 1, CubesZ: 3}, {CubesX: 1, CubesY: 7, CubesZ: 1}} {
		for _, pl := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
			ranks := 84 // seven whole cubes
			if pl != OnePerNode {
				ranks *= CoresPerNode
			}
			job, err := NewJob(m, ranks, pl)
			if err != nil {
				t.Fatal(err)
			}
			cached, ok := SendModel(plain, job).(*cachedLatency)
			if !ok {
				t.Fatalf("%v %v: hierarchical model was not wrapped", m, pl)
			}
			for i := 0; i < job.Ranks(); i++ {
				for k := 0; k < job.Ranks(); k++ {
					if got, want := cached.Latency(job, i, k, 0), plain.Latency(job, i, k, 0); got != want {
						t.Fatalf("%v %v: Latency(%d, %d, 0) = %v, want %v", m, pl, i, k, got, want)
					}
				}
			}
			for i := 0; i < job.Ranks(); i += 7 {
				for k := 0; k < job.Ranks(); k += 3 {
					for _, sz := range sizes {
						want := plain.Latency(job, i, k, sz)
						// Twice: the first call fills the byte memo, the second reads it.
						if got := cached.Latency(job, i, k, sz); got != want {
							t.Fatalf("cold memo: Latency(%d, %d, %d) = %v, want %v", i, k, sz, got, want)
						}
						if got := cached.Latency(job, i, k, sz); got != want {
							t.Fatalf("warm memo: Latency(%d, %d, %d) = %v, want %v", i, k, sz, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSendModelUnpackableJob: a coordinate too large for the packed
// word must leave the plain model in charge, not a truncated copy.
func TestSendModelUnpackableJob(t *testing.T) {
	alloc, err := Allocate(KComputer(), 16)
	if err != nil {
		t.Fatal(err)
	}
	alloc.NodeList[5].Y = cubeMax + 1
	job, err := PlaceJob(alloc, 16, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultLatency()
	if SendModel(plain, job) != LatencyModel(plain) {
		t.Fatal("a job with an unpackable coordinate was wrapped")
	}
	// Distances fall back to the Coords and stay exact.
	if got, want := job.DistanceSq(4, 5), distSq(job.Coord(4), job.Coord(5)); got != want || got < cubeMax*cubeMax {
		t.Fatalf("DistanceSq(4, 5) = %d on the unpackable job, want %d", got, want)
	}
	for _, c := range []Coord{{X: cubeMax, Y: cubeMax, Z: cubeMax, A: intraMax, B: intraMax, C: intraMax}, {}, {X: 3, B: 2, C: 1}} {
		p, ok := pack(c)
		if !ok || (Coord{p.x(), p.y(), p.z(), p.a(), p.b(), p.c()}) != c {
			t.Fatalf("pack(%v) round-trips to (%d,%d,%d,%d,%d,%d), ok=%v", c, p.x(), p.y(), p.z(), p.a(), p.b(), p.c(), ok)
		}
	}
}

// TestSendModelPassThrough: stateful or already-cheap models must come
// back unwrapped — caching JitterLatency would freeze its RNG stream.
func TestSendModelPassThrough(t *testing.T) {
	job, err := NewJob(KComputer(), 4, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	jit := NewJitterLatency(DefaultLatency(), 0.2, 1)
	if SendModel(jit, job) != LatencyModel(jit) {
		t.Fatal("JitterLatency was wrapped")
	}
	uni := &UniformLatency{Fixed: 5}
	if SendModel(uni, job) != LatencyModel(uni) {
		t.Fatal("UniformLatency was wrapped")
	}
}

// TestSendModelForeignJob: a lookup against a job other than the one
// the cache was built for must not read that job's table.
func TestSendModelForeignJob(t *testing.T) {
	jobA, err := NewJob(KComputer(), 64, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := NewJob(KComputer(), 64, EightRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	cached := SendModel(DefaultLatency(), jobA)
	for i := 0; i < 64; i += 5 {
		for k := 0; k < 64; k++ {
			want := DefaultLatency().Latency(jobB, i, k, 16)
			if got := cached.Latency(jobB, i, k, 16); got != want {
				t.Fatalf("foreign job: Latency(%d, %d) = %v, want %v", i, k, got, want)
			}
		}
	}
}
