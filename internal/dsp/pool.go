package dsp

import "sync"

// Scratch-buffer pools for the modem hot path. One OFDM demodulation
// performs an FFT per symbol plus one per noise window; without pooling
// every transform allocates a fresh spectrum slice, and a parallel batch
// sweep spends a measurable fraction of its time in the allocator. The
// pools are keyed by slice length (the FFT sizes in play are a small
// fixed set) and are safe for concurrent use.
//
// Contract: a Get* buffer is zeroed, exactly like a fresh make(); Put*
// hands it back once the caller is done. Returning a buffer twice, or
// using it after Put, is a data race — same rules as sync.Pool. Buffers
// whose length does not match a pool key are dropped, not recycled.

var (
	_complexPools sync.Map // map[int]*sync.Pool of *[]complex128
	_floatPools   sync.Map // map[int]*sync.Pool of *[]float64
)

func complexPool(n int) *sync.Pool {
	if p, ok := _complexPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := _complexPools.LoadOrStore(n, &sync.Pool{
		New: func() any {
			buf := make([]complex128, n)
			return &buf
		},
	})
	return p.(*sync.Pool)
}

func floatPool(n int) *sync.Pool {
	if p, ok := _floatPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := _floatPools.LoadOrStore(n, &sync.Pool{
		New: func() any {
			buf := make([]float64, n)
			return &buf
		},
	})
	return p.(*sync.Pool)
}

// GetComplex returns a zeroed []complex128 of length n from the pool.
func GetComplex(n int) []complex128 {
	if n <= 0 {
		return nil
	}
	buf := *complexPool(n).Get().(*[]complex128)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// PutComplex recycles a buffer obtained from GetComplex.
func PutComplex(buf []complex128) {
	if len(buf) == 0 {
		return
	}
	buf = buf[:len(buf):len(buf)]
	complexPool(len(buf)).Put(&buf)
}

// GetFloat returns a zeroed []float64 of length n from the pool.
func GetFloat(n int) []float64 {
	if n <= 0 {
		return nil
	}
	buf := *floatPool(n).Get().(*[]float64)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// PutFloat recycles a buffer obtained from GetFloat.
func PutFloat(buf []float64) {
	if len(buf) == 0 {
		return
	}
	buf = buf[:len(buf):len(buf)]
	floatPool(len(buf)).Put(&buf)
}

// GetFloatScratch returns a zeroed []float64 of length n whose backing
// array comes from the pool of the next power-of-two size, so callers
// whose lengths vary (recordings, noise renders) share a handful of pools
// instead of one per length. Release it with PutFloatScratch.
func GetFloatScratch(n int) []float64 {
	if n <= 0 {
		return nil
	}
	return GetFloat(NextPow2(n))[:n]
}

// PutFloatScratch recycles a buffer obtained from GetFloatScratch.
func PutFloatScratch(buf []float64) {
	PutFloat(buf[:cap(buf)])
}
