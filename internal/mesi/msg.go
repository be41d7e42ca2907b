package mesi

import "denovosync/internal/proto"

// msgKind names a MESI message: a request or response on the network,
// or delayed work a controller schedules to itself. Every kind is
// handled by exactly one controller's receive function (L1.recv or
// Directory.recv), whose switch is the protocol's message table.
type msgKind uint8

const (
	// L1 → directory.
	mGetS     msgKind = iota // read miss
	mGetM                    // write miss or upgrade
	mUnblock                 // the requester's grant completed: the line may reopen
	mOwnerAck                // the previous owner's writeback/ack for a forwarded GetS
	mPut                     // eviction writeback (PutM/PutE)
	// Directory → L1.
	mInv     // invalidation on behalf of a requester
	mFwdGetS // read forwarded to the owner
	mFwdGetM // write forwarded to the owner
	mPutAck  // writeback ack
	// To a requesting L1, from the directory, a sharer or the previous owner.
	mData   // data or ack-count grant
	mInvAck // invalidation ack
	// L1 to itself.
	mIssue      // send a miss's GetS or GetM once the access latency has passed
	mAnswerGetS // answer a forwarded GetS once the remote-L1 latency has passed
	mAnswerGetM // answer a forwarded GetM once the remote-L1 latency has passed
	// Directory to itself.
	mStart   // start the line's head-of-queue transaction once the L2 latency has passed
	mFetched // a line's cold fetch arrived from memory
)

// msg is one MESI message. A message carries what its handler takes,
// fixed when it is sent.
type msg struct {
	kind    msgKind
	wantM   bool       // mIssue, mStart, mFetched: the miss wants M (a GetM)
	excl    bool       // mData: exclusive grant (GetS → E)
	unblock bool       // mData: the directory blocked for this transaction and awaits mUnblock
	dirty   bool       // mPut: the line was M (data), not E (clean notice)
	acks    int        // mData: invalidation acks the requester collects
	addr    proto.Addr // the line
	req     *L1        // the requester (mPut: the evicting L1)
	epoch   uint64     // directory grant epoch (mData, mFwdGetM, mPut)
}

// retry is an access stalled behind an outstanding miss, re-run as
// access(req, commit, false) when the miss completes.
type retry struct {
	req    proto.Request
	commit func(uint64)
}
