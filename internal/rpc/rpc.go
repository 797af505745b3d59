// Package rpc implements the client/server request protocol of the
// fault-tolerant applications: client-stamped request identities, retries
// with primary failover, and at-most-once execution semantics backed by a
// reply log that duplex FTMs replicate to their slave (so a failover never
// re-executes a request whose reply was already produced).
package rpc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"resilientft/internal/telemetry"
)

// Request is one client call. ClientID and Seq together identify the
// request across retries and failovers.
type Request struct {
	ClientID string
	Seq      uint64
	Op       string
	// Group is the replica group (shard) the request targets; empty in
	// unsharded deployments. Routers stamp it from the ring pick, and a
	// replica mux on the serving side dispatches on it.
	Group   string
	Payload []byte
	// Trace carries the sampled span context the request executes under;
	// the zero value (unsampled) is the common case. On the wire it
	// travels as an optional codec trailer, so unsampled requests and
	// pre-trace peers produce byte-identical frames.
	Trace telemetry.SpanContext
}

// ID returns the request's globally unique identity.
func (r Request) ID() string { return fmt.Sprintf("%s#%d", r.ClientID, r.Seq) }

// Status encodes the outcome class of a response.
type Status int

// Response status values.
const (
	// StatusOK is a successful execution.
	StatusOK Status = iota + 1
	// StatusAppError is a business-logic failure (deterministic, logged
	// for at-most-once like any reply).
	StatusAppError
	// StatusNotMaster tells the client to fail over to another replica.
	StatusNotMaster
	// StatusUnavailable reports a replica that cannot serve right now
	// (for example mid-recovery); the client retries elsewhere.
	StatusUnavailable
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAppError:
		return "app-error"
	case StatusNotMaster:
		return "not-master"
	case StatusUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Response is the reply to a Request.
type Response struct {
	ClientID string
	Seq      uint64
	Status   Status
	Payload  []byte
	Err      string
	// Replayed marks a response served from the reply log rather than by
	// re-execution (at-most-once in action).
	Replayed bool
}

// Errors of the rpc package.
var (
	// ErrExhausted reports that all replicas were tried without success.
	ErrExhausted = errors.New("rpc: all replicas unreachable")
	// ErrApp wraps a StatusAppError response on the client side.
	ErrApp = errors.New("rpc: application error")
)

// replySlot is one retained response. The client ID is the ring's map
// key, so a slot does not repeat it, and the status is kept in 32 bits
// (the protocol's statuses are a handful of small codes): with the used
// flag folded in, a slot takes 56 bytes where a Response takes 80.
type replySlot struct {
	seq     uint64
	payload []byte
	err     string
	status  int32
	used    bool
	// replayed is recorded, not just set on lookup: an assertion
	// escalation logs the peer's reply, which the peer may have served
	// from its own log.
	replayed bool
}

func (s *replySlot) response(clientID string) Response {
	return Response{ClientID: clientID, Seq: s.seq, Status: Status(s.status),
		Payload: s.payload, Err: s.err, Replayed: s.replayed}
}

// ReplyLog is the at-most-once cache: the last response per client
// request. It retains a bounded number of entries per client (a client
// only ever retries its most recent requests). The log is part of FTM
// state: PBR ships it inside checkpoints, LFR maintains it on both
// replicas.
//
// Each client owns a ring of slots indexed by seq%perClient: slot i holds
// the response with the highest seq ever recorded for residue i, which
// is exactly the "keep the newest perClient seqs" retention policy with
// no scanning or sorting, and makes Lookup and Record O(1). A ring is
// grown lazily, geometrically, to cover the highest index the client has
// reached (capped at perClient), so a short-lived client that sends a
// handful of requests pays for a handful of slots, not the full window.
// Restore reuses the rings in place: a full checkpoint applied to a warm
// log allocates only for clients it has not seen before.
//
// A bounded journal of recent records, indexed by a monotonic mark,
// supports SnapshotSince so delta checkpoints ship only the responses
// recorded since the peer's last acknowledged mark.
type ReplyLog struct {
	mu        sync.Mutex
	perClient int
	rings     map[string][]replySlot
	// n counts the used slots across all rings.
	n int

	// mark counts records ever applied; the journal tail holds the
	// records with indices [tailStart, mark).
	mark      uint64
	tail      []Response
	tailStart uint64
	tailMax   int
}

// NewReplyLog returns a log retaining perClient responses per client
// (minimum 1).
func NewReplyLog(perClient int) *ReplyLog {
	if perClient < 1 {
		perClient = 1
	}
	tailMax := 4 * perClient
	if tailMax < 256 {
		tailMax = 256
	}
	return &ReplyLog{
		perClient: perClient,
		rings:     make(map[string][]replySlot),
		tailMax:   tailMax,
	}
}

// Lookup returns the logged response for (clientID, seq).
func (l *ReplyLog) Lookup(clientID string, seq uint64) (Response, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	slots := l.rings[clientID]
	i := int(seq % uint64(l.perClient))
	if i >= len(slots) || !slots[i].used || slots[i].seq != seq {
		return Response{}, false
	}
	r := slots[i].response(clientID)
	r.Replayed = true
	return r, true
}

// Record stores a response, evicting the oldest entry of that client
// sharing its ring slot.
func (l *ReplyLog) Record(resp Response) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.record(resp, true)
}

// RecordAll stores a batch of responses under one lock acquisition; the
// slave applies checkpoint-delta tails through it.
func (l *ReplyLog) RecordAll(resps []Response) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range resps {
		l.record(r, true)
	}
}

func (l *ReplyLog) record(resp Response, journal bool) {
	i := int(resp.Seq % uint64(l.perClient))
	slots := l.rings[resp.ClientID]
	if i >= len(slots) {
		slots = l.grow(slots, i)
		l.rings[resp.ClientID] = slots
	}
	s := &slots[i]
	if s.used && s.seq > resp.Seq {
		// A newer request already claimed the slot; under the retention
		// bound the incoming response would have been evicted anyway.
		return
	}
	if !s.used {
		l.n++
	}
	*s = replySlot{seq: resp.Seq, payload: resp.Payload, err: resp.Err,
		status: int32(resp.Status), used: true, replayed: resp.Replayed}
	if !journal {
		return
	}
	l.mark++
	l.tail = append(l.tail, resp)
	if len(l.tail) > l.tailMax {
		// Drop down to half the bound so trimming stays amortized O(1).
		drop := len(l.tail) - l.tailMax/2
		l.tail = append(l.tail[:0:0], l.tail[drop:]...)
		l.tailStart += uint64(drop)
	}
}

// grow returns slots extended to cover index i: to half again their
// length, or to i+1 if that is further, capped at perClient (which i is
// always below). Growing by half rather than doubling keeps the common
// short client small: a client at seq 8 gets 9 slots (504 bytes), where
// doubling would give it 16, and the allocator's header on objects past
// 512 bytes would round those up to a 1 KiB block.
func (l *ReplyLog) grow(slots []replySlot, i int) []replySlot {
	n := min(max(i+1, len(slots)+len(slots)/2), l.perClient)
	grown := make([]replySlot, n)
	copy(grown, slots)
	return grown
}

// Mark returns the journal position: the count of records applied so
// far. A later SnapshotSince(mark) yields exactly the records that
// follow.
func (l *ReplyLog) Mark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mark
}

// SnapshotSince returns the responses recorded after the given mark and
// the new mark. ok is false when the journal no longer reaches back that
// far (or the mark is from another log's history); the caller must fall
// back to a full Snapshot.
func (l *ReplyLog) SnapshotSince(mark uint64) (tail []Response, newMark uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if mark < l.tailStart || mark > l.mark {
		return nil, l.mark, false
	}
	out := append([]Response(nil), l.tail[mark-l.tailStart:]...)
	return out, l.mark, true
}

// Len returns the total number of logged responses.
func (l *ReplyLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Snapshot serializes the log for inclusion in a checkpoint. The
// ordering (ClientID, then Seq) is part of the checkpoint wire format
// and must not change.
func (l *ReplyLog) Snapshot() []Response {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

// SnapshotMarked atomically pairs a full snapshot with the journal mark
// it corresponds to, so a SnapshotSince from that mark continues exactly
// where the snapshot left off.
func (l *ReplyLog) SnapshotMarked() ([]Response, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(), l.mark
}

func (l *ReplyLog) snapshotLocked() []Response {
	ids := make([]string, 0, len(l.rings))
	for id := range l.rings {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]Response, 0, l.n)
	for _, id := range ids {
		from := len(out)
		slots := l.rings[id]
		for i := range slots {
			if slots[i].used {
				out = append(out, slots[i].response(id))
			}
		}
		// Slot order is seq%perClient; a client whose seqs wrapped the
		// ring needs its entries put back in seq order.
		slices.SortFunc(out[from:], func(a, b Response) int { return cmp.Compare(a.Seq, b.Seq) })
	}
	return out
}

// Restore replaces the log contents with a snapshot. The rings are
// cleared and refilled in place, and those of clients absent from the
// snapshot are dropped, so restoring a checkpoint into a warm log
// allocates only for clients it did not hold. The journal is cleared
// (tailStart catches up to mark), so a SnapshotSince against a
// pre-restore mark reports ok=false and forces a full snapshot.
func (l *ReplyLog) Restore(snapshot []Response) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, slots := range l.rings {
		clear(slots)
	}
	l.n = 0
	clear(l.tail)
	l.tail = l.tail[:0]
	l.tailStart = l.mark
	for _, r := range snapshot {
		l.record(r, false)
	}
	for id, slots := range l.rings {
		if !slices.ContainsFunc(slots, func(s replySlot) bool { return s.used }) {
			delete(l.rings, id)
		}
	}
}
