package linkmodel

// Dice is a counter-based rand.Source64: 8 bytes of SplitMix64 state.
// The emulation server keys it once per (packet, receiver) pair before
// it evaluates a Model, so every draw a verdict needs — the loss roll,
// then any delay jitter — comes from a stream that is a pure function
// of the key. A verdict then no longer depends on what the sender sent
// before, on how many neighbours it had, or on which shard or peer
// evaluated it, and anyone holding the seed and a recorded packet can
// derive the verdict again:
//
//	var d linkmodel.Dice
//	d.Key(linkmodel.PacketKey(seed, src, seq, stamp), receiver)
//	dec := model.Evaluate(r, size, rand.New(&d))
//
// Keying is O(1) — a few multiplies, no table to fill — so a verdict
// that draws nothing (NoLoss with ConstantDelay) pays next to nothing.
// The zero value is a valid stream (seed 0). A Dice is not safe for
// concurrent use.
type Dice struct{ s uint64 }

// golden is SplitMix64's increment, 2^64/φ rounded to odd.
const golden = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output finalizer (Stafford's variant 13): every
// input bit flips about half the output bits.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// PacketKey folds the seed and one packet's identity into a 64-bit key:
// its source, sequence number and the stamp the server scheduled it by.
// The stamp keeps a retransmission that reuses a sequence number from
// inheriting its predecessor's verdict. Each field passes through the
// finalizer before the next joins, so keys that differ in one bit of
// any field share nothing.
func PacketKey(seed int64, src, seq uint32, stamp int64) uint64 {
	k := mix64(uint64(seed) + golden)
	k = mix64(k ^ (uint64(src)<<32 | uint64(seq)))
	return mix64(k ^ uint64(stamp))
}

// Key positions the dice at the start of the stream for one receiver of
// the packet keyed by packet (PacketKey).
func (d *Dice) Key(packet uint64, receiver uint32) {
	d.s = mix64(packet ^ uint64(receiver)*golden)
}

// Uint64 implements rand.Source64: the next SplitMix64 output.
func (d *Dice) Uint64() uint64 {
	d.s += golden
	return mix64(d.s)
}

// Int63 implements rand.Source.
func (d *Dice) Int63() int64 { return int64(d.Uint64() >> 1) }

// Seed implements rand.Source: the stream restarts from seed.
func (d *Dice) Seed(seed int64) { d.s = uint64(seed) }
