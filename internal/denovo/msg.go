package denovo

import "denovosync/internal/proto"

// msgKind names a DeNovo message: a request or response on the network,
// or delayed work a controller schedules to itself. Every kind is
// handled by exactly one controller's receive function (L1.recv or
// Registry.recv), whose switch is the protocol's message table.
type msgKind uint8

const (
	// L1 → registry.
	mDataRead msgKind = iota // data-read miss
	mReg                     // registration request
	mWB                      // eviction writeback
	// Registry → L1.
	mFwdDataRead // data read forwarded to the registered core
	mFwdReg      // registration forwarded to the previous registrant
	mRegGrant    // registration ack from the registry: the value is read on arrival
	mWBAck       // writeback ack
	// To a requesting L1, from the registry or another L1.
	mDataFill // data response
	mRegAck   // registration ack from the previous registrant, value attached
	// L1 to itself.
	mSendReg    // issue a registration once the access latency (and any backoff stall) has passed
	mReadMiss   // issue a data read once the access latency has passed
	mAnswerRead // answer a forwarded data read once the remote-L1 latency has passed
	mServiceFwd // service a forwarded registration once the remote-L1 latency has passed
	// Registry to itself.
	mDataReadL2 // serve a data read once the L2 latency has passed
	mRegL2      // serve a registration once the L2 latency has passed
	mWBL2       // retire a writeback once the L2 latency has passed
	mFetched    // a line's cold fetch arrived from memory
)

// msg is one DeNovo message. A message carries what its handler takes,
// fixed when it is sent; a value the handler reads on arrival (the
// registry's mRegGrant) is read by the receive function. A data fill's
// word values wait in the receiving L1's fills slab, not in the message,
// so every message stays small enough to copy without a block move.
type msg struct {
	kind  msgKind
	stale bool             // mServiceFwd: the forward predates this core's last writeback ack
	mask  uint16           // words carried, bit i for word i (mWB, mWBAck, mDataFill)
	fill  uint32           // mDataFill: the slot of the words' values in the receiver's fills
	akind proto.AccessKind // the access kind of a registration
	addr  proto.Addr       // the word (the line for mWB, mWBAck and mDataFill)
	from  *L1              // the requesting L1
	// val is the registered word's value (mRegAck); serial is the
	// registry's serialization stamp (mFwdReg, mWBAck).
	val, serial uint64
}

// lineVals holds the word values a data fill carries, by word index
// (only the words in the fill's mask are meaningful).
type lineVals [proto.WordsPerLine]uint64

// retry is an access stalled behind an outstanding transaction or an
// unacked writeback, re-run as access(req, commit, first) when it
// resolves.
type retry struct {
	req    proto.Request
	commit func(uint64)
	first  bool
}
