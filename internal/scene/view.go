package scene

// Epoch-snapshot dispatch views: the lock-free read path of the
// forwarding loop.
//
// Per-packet dispatch (§3.2 step 2–3) needs two answers — NT(src, ch)
// and the link model governing ch — and the server asks for them once
// per received packet. Taking the scene mutex for each answer convoys
// every session behind every other session and behind mobility ticks.
// Instead the scene maintains, per channel, an immutable *ChannelView*
// holding every member's neighbor row and the channel's resolved link
// model, and publishes the set of views through one atomic pointer.
//
// There is one row store. A row is the []Neighbor the radio table
// built; the view holds the same slice, never a copy. The table may
// write a row only until it reports it through Flush (see
// radio.IndexedTables); publishLocked is the only caller of Flush, so a
// row reachable from a published view is never written again.
//
// Writer protocol (all under Scene.mu):
//   - every mutation marks the channels it touched dirty
//     (markChannelDirtyLocked / markNodeDirtyLocked), and the table
//     remembers which rows the mutation changed;
//   - before the mutator returns it calls publishLocked, which forks
//     the view of each dirty channel, stores the flushed rows in the
//     forks, and atomically publishes the new view set. A fork shares
//     with its parent every bucket of rows the publish does not write:
//     the first write to a bucket copies that bucket (a few dozen slice
//     headers), later writes in the same publish go to the copy. Clean
//     channels keep their *ChannelView pointer. The cost of a publish is
//     therefore proportional to the rows that changed — the paper's
//     §4.2 update-cost property carried through to the view layer.
//     Scene.Tick and AddNodes mutate many times and publish once.
//
// Who may write what, and when it freezes:
//   - a row: the radio table, until the Flush that reports it;
//   - a rowBucket and a ChannelView: the publish whose epoch they carry,
//     until that publish stores the view set.
//
// Reader protocol: Dispatch performs one atomic load, one map lookup,
// one hash and a scan of one bucket's IDs, all on immutable data. No
// locks, no copies, no allocations.
//
// Memory-ordering contract: a view set is fully constructed before the
// atomic Store publishes it, and readers only navigate data reachable
// from the atomic Load, so the publication happens-before every read
// (Go memory model: atomic.Pointer Store/Load act as release/acquire).

import (
	"slices"

	"repro/internal/linkmodel"
	"repro/internal/radio"
)

// ChannelView is one channel's immutable dispatch state: every member's
// sorted neighbor row plus the resolved link model. Returned rows are
// shared — callers must treat them as read-only.
//
// Rows sit in buckets chosen by a hash of the node ID, so IDs may be
// arbitrarily sparse and memory is O(members). The directory doubles
// and halves with the membership to keep the mean bucket at bucketLoad
// rows or fewer; a join or leave rewrites one bucket, not the index.
type ChannelView struct {
	model   linkmodel.Model
	epoch   uint64       // the publish that forked this view and may write it
	shift   uint8        // a node's bucket is hash(id) >> shift
	buckets []*rowBucket // len is a power of two; nil = empty bucket
	members int
}

// rowBucket holds the rows of the members that hash to it. ids is
// replaced, never written, so forks of a bucket share it for as long as
// the bucket's membership stands.
type rowBucket struct {
	epoch uint64 // the publish that created this bucket and may write rows
	ids   []radio.NodeID
	rows  [][]radio.Neighbor // rows[i] is the row of ids[i]
}

// bucketLoad is the mean bucket size at which the directory doubles; it
// halves at an eighth of that. A publish copies the directory (8 B per
// bucket) and, per changed row, about one bucket (24 B per member): at
// 16 a one-node move on 16 384 nodes copies 8 KiB + 37 × 0.4 KiB, and
// 16 IDs are one cache line for Row to scan.
const bucketLoad = 16

func (v *ChannelView) bucketOf(id radio.NodeID) uint32 {
	return (uint32(id) * 0x9E3779B1) >> v.shift // Fibonacci hashing: high bits
}

// Model returns the link model governing the channel at this epoch.
func (v *ChannelView) Model() linkmodel.Model { return v.model }

// Row returns NT(id, ch) at this epoch. The slice is shared and sorted
// by neighbor ID; callers must not mutate it.
func (v *ChannelView) Row(id radio.NodeID) []radio.Neighbor {
	b := v.buckets[v.bucketOf(id)]
	if i := b.index(id); i >= 0 {
		return b.rows[i]
	}
	return nil
}

// index returns id's position in the bucket, or -1. A nil bucket is
// empty.
func (b *rowBucket) index(id radio.NodeID) int {
	if b != nil {
		for i, m := range b.ids {
			if m == id {
				return i
			}
		}
	}
	return -1
}

// fork returns a view the publish of the given epoch may write: the
// bucket directory is copied, the buckets are shared. A nil receiver
// forks the empty view.
func (v *ChannelView) fork(epoch uint64) *ChannelView {
	if v == nil {
		return &ChannelView{epoch: epoch, shift: 32, buckets: make([]*rowBucket, 1)}
	}
	nv := *v
	nv.epoch = epoch
	nv.buckets = slices.Clone(v.buckets)
	return &nv
}

// put stores id's row, adding id to the channel if need be. Only the
// publish that forked v may call it.
func (v *ChannelView) put(id radio.NodeID, row []radio.Neighbor) {
	slot := &v.buckets[v.bucketOf(id)]
	b := *slot
	if i := b.index(id); i >= 0 {
		if b.epoch != v.epoch {
			b = &rowBucket{epoch: v.epoch, ids: b.ids, rows: slices.Clone(b.rows)}
			*slot = b
		}
		b.rows[i] = row
		return
	}
	nb := &rowBucket{epoch: v.epoch}
	if b != nil {
		nb.ids = append(make([]radio.NodeID, 0, len(b.ids)+1), b.ids...)
		nb.rows = append(make([][]radio.Neighbor, 0, len(b.rows)+1), b.rows...)
	}
	nb.ids = append(nb.ids, id)
	nb.rows = append(nb.rows, row)
	*slot = nb
	v.members++
	if v.members > bucketLoad*len(v.buckets) {
		v.rehash(2 * len(v.buckets))
	}
}

// drop removes id's row; a node that is not a member is ignored. Only
// the publish that forked v may call it.
func (v *ChannelView) drop(id radio.NodeID) {
	slot := &v.buckets[v.bucketOf(id)]
	b := *slot
	i := b.index(id)
	if i < 0 {
		return
	}
	if len(b.ids) == 1 {
		*slot = nil
	} else {
		*slot = &rowBucket{
			epoch: v.epoch,
			ids:   slices.Delete(slices.Clone(b.ids), i, i+1),
			rows:  slices.Delete(slices.Clone(b.rows), i, i+1),
		}
	}
	v.members--
	if n := len(v.buckets); n > 1 && v.members < bucketLoad/8*n {
		v.rehash(n / 2)
	}
}

// rehash redistributes the rows over n buckets (a power of two), all of
// them new and so writable by the current publish.
func (v *ChannelView) rehash(n int) {
	old := v.buckets
	v.buckets = make([]*rowBucket, n)
	v.shift = 32
	for ; n > 1; n >>= 1 {
		v.shift--
	}
	for _, b := range old {
		if b == nil {
			continue
		}
		for i, id := range b.ids {
			slot := &v.buckets[v.bucketOf(id)]
			if *slot == nil {
				*slot = &rowBucket{epoch: v.epoch}
			}
			(*slot).ids = append((*slot).ids, id)
			(*slot).rows = append((*slot).rows, b.rows[i])
		}
	}
}

// viewSet is one published epoch: every channel's view plus the default
// model for channels with no view (no members and no explicit model).
type viewSet struct {
	chans    map[radio.ChannelID]*ChannelView
	defModel linkmodel.Model
}

// Dispatch resolves the forwarding read path for one packet: NT(src,
// ch) and the link model of ch, from the current epoch snapshot. It is
// lock-free and allocation-free — a single atomic load — and safe to
// call concurrently with any scene mutation. The returned slice is
// shared with the snapshot; callers must not mutate it.
func (s *Scene) Dispatch(src radio.NodeID, ch radio.ChannelID) ([]radio.Neighbor, linkmodel.Model) {
	vs := s.views.Load()
	if v := vs.chans[ch]; v != nil {
		return v.Row(src), v.model
	}
	return nil, vs.defModel
}

// View returns the current epoch's view of ch, or nil when the channel
// has no members and no explicit model.
func (s *Scene) View(ch radio.ChannelID) *ChannelView {
	return s.views.Load().chans[ch]
}

// ViewRebuilds returns how many publishes have replaced ch's dispatch
// view — the view-layer analogue of radio.NeighborTable.UpdateCost,
// used by tests to pin the "a change on channel k never rebuilds
// channel j's view" property.
func (s *Scene) ViewRebuilds(ch radio.ChannelID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilds[ch]
}

// ViewRebuildCounts returns every channel's rebuild count. The map is a
// copy.
func (s *Scene) ViewRebuildCounts() map[radio.ChannelID]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[radio.ChannelID]uint64, len(s.rebuilds))
	for ch, n := range s.rebuilds {
		out[ch] = n
	}
	return out
}

// RowsRepublished returns how many neighbor rows publishes have stored
// in (or dropped from) dispatch views since the scene was created: the
// size of the view work done, where ViewRebuilds counts its occasions.
func (s *Scene) RowsRepublished() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rowsRepublished
}

// markChannelDirtyLocked queues ch for a view rebuild at the next
// publishLocked.
func (s *Scene) markChannelDirtyLocked(ch radio.ChannelID) {
	s.dirty[ch] = struct{}{}
}

// markNodeDirtyLocked queues every channel of the node's radio set.
// Call it with the radio set that is (or was) in effect — for removals
// that means capturing the old set before mutating.
func (s *Scene) markNodeDirtyLocked(radios []radio.Radio) {
	for _, r := range radios {
		s.dirty[r.Channel] = struct{}{}
	}
}

// markRadiosDirtyLocked queues the channels a radio swap from old to now
// changes: those the node leaves or joins, and those it stays on at a
// new range — the channels whose rows the table rewrites. A channel it
// stays on at the same range keeps its view, so a range change rebuilds
// one channel whether it is made by SetRange or, replicated to a
// follower, by SetRadios.
func (s *Scene) markRadiosDirtyLocked(old, now []radio.Radio) {
	was, is := radio.Node{Radios: old}, radio.Node{Radios: now}
	for _, rs := range [][]radio.Radio{old, now} {
		for _, r := range rs {
			r0, on0 := was.RangeOn(r.Channel)
			r1, on1 := is.RangeOn(r.Channel)
			if r0 != r1 || on0 != on1 {
				s.dirty[r.Channel] = struct{}{}
			}
		}
	}
}

// publishLocked stores a new epoch in which every dirty channel has a
// new view: the rows the table changed since the last publish, the
// channel's current model, and everything else shared with the previous
// view. Clean channels keep their *ChannelView pointer. No-op when
// nothing is dirty.
func (s *Scene) publishLocked() {
	if len(s.dirty) == 0 && !s.allDirty {
		return // no mutator ran: each marks the channels whose rows it changes
	}
	old := s.views.Load()
	if s.allDirty {
		// Default-model change: every existing view's resolved model may
		// differ, so replace them all (rare operator action).
		for ch := range old.chans {
			s.dirty[ch] = struct{}{}
		}
		for ch := range s.models {
			s.dirty[ch] = struct{}{}
		}
		s.allDirty = false
	}
	s.epoch++
	chans := make(map[radio.ChannelID]*ChannelView, len(old.chans)+len(s.dirty))
	for ch, v := range old.chans {
		chans[ch] = v // shared: clean channels carry over by pointer
	}
	for ch := range s.dirty {
		chans[ch] = chans[ch].fork(s.epoch)
	}
	clear(s.rowsBy)
	s.tab.Flush(func(ch radio.ChannelID, id radio.NodeID, row []radio.Neighbor, member bool) {
		v := chans[ch]
		if v == nil || v.epoch != s.epoch {
			panic("scene: a row changed on a channel its mutator did not mark dirty")
		}
		if member {
			v.put(id, row)
		} else {
			v.drop(id)
		}
		s.rowsBy[ch]++
		s.rowsRepublished++
	})
	for ch := range s.dirty {
		delete(s.dirty, ch)
		v := chans[ch]
		model, explicit := s.models[ch]
		if !explicit {
			if v.members == 0 {
				delete(chans, ch)
				continue
			}
			model = s.defModel
		}
		v.model = model
		if s.rebuilds[ch]++; s.rebuilds[ch] == 1 && s.reg != nil {
			s.instrumentChannelLocked(ch)
		}
		if s.rebuildObs != nil {
			s.rebuildObs(ch, s.rowsBy[ch])
		}
	}
	s.views.Store(&viewSet{chans: chans, defModel: s.defModel})
}

// SetRebuildObserver installs fn to observe every channel-view rebuild
// and the number of rows it republished (nil removes it). It runs under
// the scene mutex, once per rebuilt channel per publish: fn must be
// fast, lock-free, and must not call back into the scene. The fidelity
// flight recorder uses it to place rebuild storms, with their size, on
// the same timeline as scheduler lag.
func (s *Scene) SetRebuildObserver(fn func(ch radio.ChannelID, rows int)) {
	s.mu.Lock()
	s.rebuildObs = fn
	s.mu.Unlock()
}
