// Package mbuf provides pooled, reference-counted packet buffers for
// the forwarding hot path. The real-time claim of the paper's server
// (§3.2) is an allocator-budget claim in disguise: a per-packet
// heap allocation on the wire-read → ingest → schedule → send path
// hands the GC a steady stream of garbage whose collection pauses are
// exactly the latency noise a real-time scheduler cannot absorb. The
// cure is the classic DPDK/trex-emu "mbuf" arrangement: buffers come
// from per-size-class free lists, carry an explicit reference count,
// and return to their class on the final Free — steady state allocates
// nothing.
//
// Ownership discipline (enforced by the chaos harness's conservation
// invariant plus the pool's own accounting):
//
//   - Alloc returns a buffer with one reference, owned by the caller.
//   - Retain(k) adds k references before a buffer fans out (one per
//     scheduled delivery of a broadcast); Drop(k) gives k of them back
//     in one step when the deliveries of a fired fan share one owner.
//   - Every pipeline exit — forwarded, queue-dropped, abandoned,
//     no-route, session close — frees exactly one reference.
//   - The final Free returns the buffer to its class; freeing past
//     zero panics (double free), and Live() exposes the outstanding
//     count so tests can assert zero leaks at teardown.
//
// Alloc/Free are safe from any goroutine. A Local wraps a pool with a
// single-owner cache (no locks) for the one-reader-per-connection
// model of the transport layer; frees still go to the shared pool, so
// only the owner may Alloc through a Local.
package mbuf

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// classSizes are the pool's buffer capacities: doubling from 64 B to
// 1 MiB, which covers every legal wire frame (wire.MaxFrame) without
// more than 2x internal fragmentation.
var classSizes = [...]int{
	64, 128, 256, 512,
	1 << 10, 2 << 10, 4 << 10, 8 << 10,
	16 << 10, 32 << 10, 64 << 10, 128 << 10,
	256 << 10, 512 << 10, 1 << 20,
}

const numClasses = len(classSizes)

// classBudget bounds the bytes each class's global free list may hold;
// beyond it a freed buffer is surrendered to the GC, so a one-off burst
// does not pin its high-water memory forever. A byte budget, not a
// count: 4 096 buffers of 128 B cover a loopback flow's in-flight
// working set (≈ 1 900), while the 1 MiB class keeps one buffer.
const classBudget = 512 << 10

// classCaps is classBudget in buffers per class, never below one.
var classCaps = func() (caps [numClasses]int) {
	for i, s := range classSizes {
		caps[i] = max(classBudget/s, 1)
	}
	return caps
}()

// classFor returns the smallest class holding n bytes, or -1 when n
// exceeds the largest class (the buffer is then heap-allocated exactly
// and never cached).
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// Buf is one pooled buffer. The zero value is not usable; obtain Bufs
// from a Pool or Local. A nil *Buf is a valid no-op target for Retain
// and Free, so unpooled packets (Payload from an ordinary []byte) flow
// through the same ownership calls without branching at every site.
type Buf struct {
	data []byte
	n    int   // bytes in use (Bytes() == data[:n])
	cls  int32 // size class; -1 = oversize, heap-owned
	refs atomic.Int32
	pool *Pool
}

// Bytes returns the in-use portion of the buffer. The slice aliases
// pool memory: it is valid only until the final Free.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Cap returns the buffer's full capacity (its class size).
func (b *Buf) Cap() int { return len(b.data) }

// Retain adds k references. Call it before fanning a buffer out to k
// additional owners; each must balance with one Free. Safe on nil.
func (b *Buf) Retain(k int) {
	if b == nil || k == 0 {
		return
	}
	b.refs.Add(int32(k))
}

// Drop removes k references in one step, none of them the last: the
// receivers of a fan that share one wrapper give back all but the
// wrapper's reference at once. Dropping the last reference is Free's
// job, so a Drop that would reach zero panics. Safe on nil.
func (b *Buf) Drop(k int) {
	if b == nil || k == 0 {
		return
	}
	if b.refs.Add(-int32(k)) <= 0 {
		panic("mbuf: Drop of the last reference")
	}
}

// Free drops one reference; the last one returns the buffer to its
// pool. Freeing an already-released buffer panics — a double free
// would silently hand the same memory to two owners, the one bug a
// recycling scheme must never let through. Safe on nil.
func (b *Buf) Free() {
	if b == nil {
		return
	}
	switch r := b.refs.Add(-1); {
	case r > 0:
	case r == 0:
		b.pool.put(b)
	default:
		panic("mbuf: double free")
	}
}

// classList is one size class's shared free list.
type classList struct {
	mu   sync.Mutex
	free []*Buf
}

// Pool is a set of size-class free lists. The zero value is not ready;
// use NewPool.
type Pool struct {
	classes [numClasses]classList

	// live counts buffers currently held by callers (allocated minus
	// finally-freed). It is the leak-check ground truth: a drained
	// pipeline must read zero.
	live   atomic.Int64
	allocs atomic.Uint64 // total Alloc calls
	hits   atomic.Uint64 // Allocs served from a free list
	poison atomic.Bool   // leak-check mode: scribble freed buffers
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Alloc returns a buffer with room for n bytes, Bytes() sized to n,
// holding one reference.
func (p *Pool) Alloc(n int) *Buf {
	p.allocs.Add(1)
	p.live.Add(1)
	cls := classFor(n)
	if cls < 0 {
		b := &Buf{data: make([]byte, n), n: n, cls: -1, pool: p}
		b.refs.Store(1)
		return b
	}
	cl := &p.classes[cls]
	cl.mu.Lock()
	var b *Buf
	if k := len(cl.free); k > 0 {
		b = cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
	}
	cl.mu.Unlock()
	if b == nil {
		b = &Buf{data: make([]byte, classSizes[cls]), cls: int32(cls), pool: p}
	} else {
		p.hits.Add(1)
	}
	b.n = n
	b.refs.Store(1)
	return b
}

// Allocator is anything that hands out pooled buffers — *Pool and
// *Local both qualify. It mirrors wire.Alloc so helpers here work with
// either allocation front.
type Allocator interface {
	Alloc(n int) *Buf
}

// AllocCopy allocates a buffer sized to src and copies src into it —
// the boundary-crossing idiom: a payload read from a foreign buffer (a
// socket scratch, a callback-scoped pooled read) repacked into a buffer
// the caller owns.
func AllocCopy(a Allocator, src []byte) *Buf {
	b := a.Alloc(len(src))
	copy(b.Bytes(), src)
	return b
}

// put returns b to its class on the final Free.
func (p *Pool) put(b *Buf) {
	p.live.Add(-1)
	if b.cls < 0 {
		return // oversize: the GC owns it
	}
	if p.poison.Load() {
		// Leak-check mode: scribble the buffer so a use-after-free reads
		// garbage deterministically instead of stale-but-plausible bytes.
		bs := b.data
		for i := range bs {
			bs[i] = 0xDB
		}
	}
	cl := &p.classes[b.cls]
	cl.mu.Lock()
	if len(cl.free) < classCaps[b.cls] {
		cl.free = append(cl.free, b)
	}
	cl.mu.Unlock()
}

// grab moves up to k free buffers of class cls into dst (a Local
// refill) under one lock acquisition.
func (p *Pool) grab(cls, k int, dst []*Buf) []*Buf {
	cl := &p.classes[cls]
	cl.mu.Lock()
	for k > 0 && len(cl.free) > 0 {
		n := len(cl.free)
		dst = append(dst, cl.free[n-1])
		cl.free[n-1] = nil
		cl.free = cl.free[:n-1]
		k--
	}
	cl.mu.Unlock()
	return dst
}

// Live returns how many buffers are currently allocated and not yet
// finally freed. A quiesced pipeline must read zero; tests assert it.
func (p *Pool) Live() int64 { return p.live.Load() }

// SetLeakCheck toggles leak-check mode: freed buffers are poisoned so
// any use-after-free surfaces immediately. The live count and the
// double-free panic are always on; poisoning is the only extra cost.
func (p *Pool) SetLeakCheck(on bool) { p.poison.Store(on) }

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Live   int64  // buffers allocated and not yet freed
	Allocs uint64 // total Alloc calls
	Hits   uint64 // Allocs served from a free list (no heap allocation)
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Live: p.live.Load(), Allocs: p.allocs.Load(), Hits: p.hits.Load()}
}

// Instrument registers the pool's gauges and counters on reg.
func (p *Pool) Instrument(reg *obs.Registry) {
	reg.Gauge("poem_mbuf_live", "pooled packet buffers currently allocated", func() float64 {
		return float64(p.live.Load())
	})
	reg.CounterFunc("poem_mbuf_allocs_total", "pooled buffer allocations", p.allocs.Load)
	reg.CounterFunc("poem_mbuf_hits_total", "pooled buffer allocations served without touching the heap", p.hits.Load)
}

// localCacheCap bounds each class's per-owner cache; localRefill is
// how many buffers one global-list visit prefetches.
const (
	localCacheCap = 32
	localRefill   = 8
)

// Local is a single-owner allocation cache over a Pool: Alloc costs no
// lock when the cache holds a buffer of the right class, refilling in
// batches when it runs dry. It fits the transport's one-reader-per-
// connection model — only the owning goroutine may call Alloc, while
// the resulting buffers are freed from anywhere (frees go to the
// shared pool).
type Local struct {
	pool *Pool
	free [numClasses][]*Buf
}

// NewLocal returns a fresh single-owner cache over p.
func (p *Pool) NewLocal() *Local { return &Local{pool: p} }

// Alloc is Pool.Alloc through the owner's cache.
func (l *Local) Alloc(n int) *Buf {
	cls := classFor(n)
	if cls >= 0 {
		s := l.free[cls]
		if len(s) == 0 {
			if s == nil {
				s = make([]*Buf, 0, localCacheCap)
			}
			s = l.pool.grab(cls, localRefill, s)
		}
		if k := len(s); k > 0 {
			b := s[k-1]
			s[k-1] = nil
			l.free[cls] = s[:k-1]
			l.pool.allocs.Add(1)
			l.pool.hits.Add(1)
			l.pool.live.Add(1)
			b.n = n
			b.refs.Store(1)
			return b
		}
		l.free[cls] = s
	}
	return l.pool.Alloc(n)
}

// Close spills the cache back to the shared pool. Call it when the
// owner (a connection's reader) is done; the Local must not be used
// afterwards.
func (l *Local) Close() {
	for cls := range l.free {
		if len(l.free[cls]) == 0 {
			continue
		}
		cl := &l.pool.classes[cls]
		cl.mu.Lock()
		for _, b := range l.free[cls] {
			if len(cl.free) < classCaps[cls] {
				cl.free = append(cl.free, b)
			}
		}
		cl.mu.Unlock()
		l.free[cls] = nil
	}
}
