package rpc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// eagerReplyLog is the reply log as it was before its rings were grown
// lazily: every client gets perClient full Response slots and a validity
// slice on its first record, and Restore rebuilds every ring. It is kept
// here, retention and journal logic unchanged, as the oracle the compact
// log must match answer for answer.
type eagerReplyLog struct {
	perClient int
	rings     map[string]*eagerRing
	mark      uint64
	tail      []Response
	tailStart uint64
	tailMax   int
}

type eagerRing struct {
	slots []Response
	valid []bool
}

func newEagerReplyLog(perClient int) *eagerReplyLog {
	if perClient < 1 {
		perClient = 1
	}
	tailMax := 4 * perClient
	if tailMax < 256 {
		tailMax = 256
	}
	return &eagerReplyLog{perClient: perClient, rings: make(map[string]*eagerRing), tailMax: tailMax}
}

func (l *eagerReplyLog) Lookup(clientID string, seq uint64) (Response, bool) {
	ring := l.rings[clientID]
	if ring == nil {
		return Response{}, false
	}
	i := int(seq % uint64(l.perClient))
	if !ring.valid[i] || ring.slots[i].Seq != seq {
		return Response{}, false
	}
	r := ring.slots[i]
	r.Replayed = true
	return r, true
}

func (l *eagerReplyLog) Record(resp Response) { l.record(resp, true) }

func (l *eagerReplyLog) RecordAll(resps []Response) {
	for _, r := range resps {
		l.record(r, true)
	}
}

func (l *eagerReplyLog) record(resp Response, journal bool) {
	ring := l.rings[resp.ClientID]
	if ring == nil {
		ring = &eagerRing{slots: make([]Response, l.perClient), valid: make([]bool, l.perClient)}
		l.rings[resp.ClientID] = ring
	}
	i := int(resp.Seq % uint64(l.perClient))
	if ring.valid[i] && ring.slots[i].Seq > resp.Seq {
		return
	}
	ring.slots[i] = resp
	ring.valid[i] = true
	if !journal {
		return
	}
	l.mark++
	l.tail = append(l.tail, resp)
	if len(l.tail) > l.tailMax {
		drop := len(l.tail) - l.tailMax/2
		l.tail = append(l.tail[:0:0], l.tail[drop:]...)
		l.tailStart += uint64(drop)
	}
}

func (l *eagerReplyLog) SnapshotSince(mark uint64) ([]Response, uint64, bool) {
	if mark < l.tailStart || mark > l.mark {
		return nil, l.mark, false
	}
	return append([]Response(nil), l.tail[mark-l.tailStart:]...), l.mark, true
}

func (l *eagerReplyLog) Len() int {
	n := 0
	for _, ring := range l.rings {
		for _, v := range ring.valid {
			if v {
				n++
			}
		}
	}
	return n
}

func (l *eagerReplyLog) Snapshot() []Response {
	var out []Response
	for _, ring := range l.rings {
		for i, v := range ring.valid {
			if v {
				out = append(out, ring.slots[i])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ClientID != out[j].ClientID {
			return out[i].ClientID < out[j].ClientID
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

func (l *eagerReplyLog) SnapshotMarked() ([]Response, uint64) { return l.Snapshot(), l.mark }

func (l *eagerReplyLog) Restore(snapshot []Response) {
	l.rings = make(map[string]*eagerRing, len(snapshot))
	l.tail = nil
	l.tailStart = l.mark
	for _, r := range snapshot {
		l.record(r, false)
	}
}

// logModel drives the compact log and the oracle with the same seeded
// operations and fails the test on the first answer they disagree on.
type logModel struct {
	t         *testing.T
	rng       *rand.Rand
	perClient int
	clients   []string
	next      map[string]uint64
	got       *ReplyLog
	want      *eagerReplyLog
}

func encodeList(rl []Response) []byte { return ResponseList(rl).AppendFast(nil) }

// response draws a response for a random client. Seqs mostly advance
// (a client's retries and new requests), with gaps, reorderings back
// into the retention window and beyond it, and seq 0.
func (m *logModel) response(clients []string) Response {
	id := clients[m.rng.Intn(len(clients))]
	seq := m.next[id]
	switch k := m.rng.Intn(10); {
	case k < 5:
		m.next[id]++
	case k < 7:
		m.next[id] += uint64(1 + m.rng.Intn(3*m.perClient))
	case k < 9:
		seq -= min(seq, uint64(m.rng.Intn(2*m.perClient+1)))
	default:
		seq = 0
	}
	r := Response{ClientID: id, Seq: seq, Status: Status(m.rng.Intn(5))}
	switch m.rng.Intn(3) {
	case 0:
		r.Payload = nil
	case 1:
		r.Payload = []byte{}
	default:
		r.Payload = []byte(fmt.Sprintf("v%d", m.rng.Int()))
	}
	if m.rng.Intn(4) == 0 {
		r.Err = "e" + id
	}
	r.Replayed = m.rng.Intn(8) == 0
	return r
}

func (m *logModel) step(i int) {
	m.t.Helper()
	switch op := m.rng.Intn(20); {
	case op < 8:
		r := m.response(m.clients)
		m.got.Record(r)
		m.want.Record(r)
	case op < 10:
		batch := make([]Response, m.rng.Intn(2*m.perClient+2))
		for j := range batch {
			batch[j] = m.response(m.clients)
		}
		m.got.RecordAll(batch)
		m.want.RecordAll(batch)
	case op < 14:
		id := m.clients[m.rng.Intn(len(m.clients))]
		seq := uint64(m.rng.Intn(int(m.next[id]) + 2))
		if m.rng.Intn(8) == 0 {
			seq = 0
		}
		g, gok := m.got.Lookup(id, seq)
		w, wok := m.want.Lookup(id, seq)
		if gok != wok || !reflect.DeepEqual(g, w) {
			m.t.Fatalf("op %d: Lookup(%s, %d) = %+v, %v; oracle %+v, %v", i, id, seq, g, gok, w, wok)
		}
	case op < 15:
		g, w := m.got.Snapshot(), m.want.Snapshot()
		if !bytes.Equal(encodeList(g), encodeList(w)) {
			m.t.Fatalf("op %d: Snapshot differs:\n got %+v\nwant %+v", i, g, w)
		}
	case op < 16:
		g, gm := m.got.SnapshotMarked()
		w, wm := m.want.SnapshotMarked()
		if gm != wm || !bytes.Equal(encodeList(g), encodeList(w)) {
			m.t.Fatalf("op %d: SnapshotMarked differs: mark %d vs %d", i, gm, wm)
		}
	case op < 18:
		mark := uint64(m.rng.Int63n(int64(m.want.mark) + 3))
		g, gm, gok := m.got.SnapshotSince(mark)
		w, wm, wok := m.want.SnapshotSince(mark)
		if gm != wm || gok != wok || !bytes.Equal(encodeList(g), encodeList(w)) {
			m.t.Fatalf("op %d: SnapshotSince(%d) = %d entries, %d, %v; oracle %d, %d, %v",
				i, mark, len(g), gm, gok, len(w), wm, wok)
		}
	default:
		// Restore a snapshot shaped like a peer's: it shares some of
		// this log's clients, drops others and brings new ones, so the
		// warm rings are reused, emptied and created in one restore.
		donor := newEagerReplyLog(m.perClient)
		others := make([]string, 0, len(m.clients)/2+4)
		for j, id := range m.clients {
			if j%2 == m.rng.Intn(2) {
				others = append(others, id)
			}
		}
		for j := 0; j < 4; j++ {
			others = append(others, fmt.Sprintf("peer%d-%d", i, j))
		}
		for j := m.rng.Intn(6 * m.perClient); j > 0; j-- {
			donor.Record(m.response(others))
		}
		snap := donor.Snapshot()
		if m.rng.Intn(3) == 0 {
			// Restore also takes unsorted lists; the fold order decides
			// which response wins a shared slot.
			m.rng.Shuffle(len(snap), func(a, b int) { snap[a], snap[b] = snap[b], snap[a] })
		}
		m.got.Restore(snap)
		m.want.Restore(snap)
	}
	if g, w := m.got.Len(), m.want.Len(); g != w {
		m.t.Fatalf("op %d: Len = %d, oracle %d", i, g, w)
	}
}

// TestReplyLogMatchesEagerOracle checks that the lazily grown compact
// rings and in-place Restore answer every operation exactly as the eager
// log did: same lookups, same snapshot bytes, same journal tails, same
// Len, across retentions and seeded random histories.
func TestReplyLogMatchesEagerOracle(t *testing.T) {
	for _, perClient := range []int{1, 3, 8, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("retain%d/seed%d", perClient, seed), func(t *testing.T) {
				m := &logModel{
					t: t, rng: rand.New(rand.NewSource(seed)), perClient: perClient,
					next: make(map[string]uint64),
					got:  NewReplyLog(perClient), want: newEagerReplyLog(perClient),
				}
				for c := 0; c < 24; c++ {
					m.clients = append(m.clients, fmt.Sprintf("c%02d", c))
				}
				for i := 0; i < 3000; i++ {
					m.step(i)
				}
				if !bytes.Equal(encodeList(m.got.Snapshot()), encodeList(m.want.Snapshot())) {
					t.Fatal("final snapshots differ")
				}
			})
		}
	}
}

// TestReplyLogRetainedBytesShortClients pins the footprint of many
// short-lived clients: 10 000 identities that each send seqs 1..8 at the
// default retention of 64 must cost at most 1 KiB apiece (the eager
// rings cost about 5.3 KiB). The payload is shared, so the figure is the
// log's own overhead: slots, ring headers and map entries.
func TestReplyLogRetainedBytesShortClients(t *testing.T) {
	const clients, seqs = 10000, 8
	ids := make([]string, clients)
	for i := range ids {
		ids[i] = fmt.Sprintf("session-%05d", i)
	}
	payload := []byte("result")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := NewReplyLog(64)
	for _, id := range ids {
		for seq := uint64(1); seq <= seqs; seq++ {
			l.Record(Response{ClientID: id, Seq: seq, Status: StatusOK, Payload: payload})
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	if l.Len() != clients*seqs {
		t.Fatalf("Len = %d, want %d", l.Len(), clients*seqs)
	}
	perClient := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / clients
	t.Logf("retained %d B per client", perClient)
	if perClient > 1024 {
		t.Fatalf("reply log retains %d B per short-lived client, budget 1024", perClient)
	}
}

// TestAllocBudgetReplyLogRestoreWarm pins the in-place Restore: applying
// a full checkpoint whose clients and seqs match what the log already
// holds (the steady state of a PBR backup) reuses every ring, so it
// allocates nothing at all.
func TestAllocBudgetReplyLogRestoreWarm(t *testing.T) {
	var snap []Response
	for c := 0; c < 200; c++ {
		for seq := uint64(1); seq <= 12; seq++ {
			snap = append(snap, Response{ClientID: fmt.Sprintf("c%03d", c), Seq: seq,
				Status: StatusOK, Payload: []byte{byte(seq)}})
		}
	}
	l := NewReplyLog(64)
	l.Restore(snap)
	allocs := testing.AllocsPerRun(20, func() { l.Restore(snap) })
	if allocs != 0 {
		t.Fatalf("warm Restore allocates %.0f times, budget 0", allocs)
	}
	if l.Len() != len(snap) {
		t.Fatalf("Len = %d after restore, want %d", l.Len(), len(snap))
	}
}
