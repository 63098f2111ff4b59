package main

// rng is splitmix64: a generator whose whole algorithm lives in this
// file, so a seed yields the same inputs and the same schedule on
// every Go release and every build.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) (n > 0); the modulo bias is below
// 2^-50 for the small n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
