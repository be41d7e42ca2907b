package proto

// Inbox holds one controller's in-flight messages: a slab of message
// values with a free list of slots. A sender posts a message into the
// destination's inbox and hands the slot to the network (or the engine,
// for delayed work a controller schedules to itself); the destination's
// receive function reads the message in place when it is delivered and
// then frees the slot. Once the slab has grown to the controller's peak
// in-flight count, posting and freeing allocate nothing.
//
// A freed slot is not cleared: messages hold only values and pointers to
// controllers and their bound receive functions, which live as long as
// the machine, so the slab retains nothing the run would free.
type Inbox[M any] struct {
	slots []M
	free  []uint32
}

// Post stores m in a free slot and returns the slot.
func (b *Inbox[M]) Post(m M) uint64 {
	slot, p := b.Claim()
	*p = m
	return slot
}

// Claim takes a free slot and returns it with a pointer to its message,
// for a sender to fill in place rather than copy in: the message still
// holds what the slot last held, so the sender sets every field its
// receiver reads. The pointer is valid until the next Post or Claim.
func (b *Inbox[M]) Claim() (uint64, *M) {
	if n := len(b.free); n > 0 {
		i := b.free[n-1]
		b.free = b.free[:n-1]
		return uint64(i), &b.slots[i]
	}
	var zero M
	b.slots = append(b.slots, zero)
	return uint64(len(b.slots) - 1), &b.slots[len(b.slots)-1]
}

// At returns the message in slot, in place: reading it copies nothing.
// The pointer stays valid until Free(slot) — a Post meanwhile may move
// the slab, but the message it points at is left unchanged.
func (b *Inbox[M]) At(slot uint64) *M { return &b.slots[slot] }

// Free releases slot once its message has been handled.
func (b *Inbox[M]) Free(slot uint64) { b.free = append(b.free, uint32(slot)) }

// Len returns the number of messages posted and not yet freed: zero once
// every message sent to the controller has been delivered.
func (b *Inbox[M]) Len() int { return len(b.slots) - len(b.free) }
