package transport

import (
	"bytes"
	"reflect"
	"testing"
)

// encodeMemberSyncFrame renders one sync payload as full frame bytes.
func encodeMemberSyncFrame(t testing.TB, p MemberSyncPayload, reply bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(nopCloser{&buf})
	n, err := c.WriteMemberSyncFrame(p, reply)
	if err != nil {
		t.Fatalf("write member sync frame: %v", err)
	}
	if n != buf.Len() {
		t.Fatalf("write reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func sampleMemberSync() MemberSyncPayload {
	return MemberSyncPayload{
		From:  "patras",
		Epoch: 3,
		Seq:   91,
		Ack:   17,
		Known: 4,
		Full:  true,
		Members: []MemberEntry{
			{Node: "athens", Incarnation: 2, Heartbeat: 40, State: "alive"},
			{Node: "corfu", Incarnation: 1, Heartbeat: 8, State: "suspect"},
			{Node: "patras", Incarnation: 5, Heartbeat: 91, State: "draining"},
			{Node: "sparta", Incarnation: 3, Heartbeat: 0, State: "left"},
		},
	}
}

// TestMemberSyncFrameRoundTrip pins the binary codec: payload → frame →
// payload is the identity, and the reply/full/want-full flags survive.
func TestMemberSyncFrameRoundTrip(t *testing.T) {
	want := sampleMemberSync()
	want.WantFull = true
	data := encodeMemberSyncFrame(t, want, true)
	c := NewConn(readCloser{bytes.NewReader(data)})
	m, f, err := c.ReadFrameOrMessage(nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if f == nil {
		t.Fatalf("got JSON message %+v, want binary frame", m)
	}
	defer f.Release()
	if f.Type != FrameMemberSync {
		t.Fatalf("frame type 0x%02x", f.Type)
	}
	if f.Flags&MemberSyncFlagReply == 0 {
		t.Fatal("reply flag lost")
	}
	got, err := DecodeMemberSyncFrame(f)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestMemberSyncFrameCanonical pins that unsorted input entries encode to the
// same bytes as sorted ones, and that an unknown state string degrades to
// suspect on the wire — the binary twin of parseState's safety rule.
func TestMemberSyncFrameCanonical(t *testing.T) {
	sorted := sampleMemberSync()
	shuffled := sampleMemberSync()
	shuffled.Members[0], shuffled.Members[2] = shuffled.Members[2], shuffled.Members[0]
	a, err := AppendMemberSyncPayload(nil, sorted)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendMemberSyncPayload(nil, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("entry order changed the encoding")
	}

	future := MemberSyncPayload{From: "n", Members: []MemberEntry{
		{Node: "x", Incarnation: 1, Heartbeat: 1, State: "quarantined-v9"},
	}}
	enc, err := AppendMemberSyncPayload(nil, future)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMemberSyncFrame(&Frame{Type: FrameMemberSync, Payload: enc})
	if err != nil {
		t.Fatal(err)
	}
	if got.Members[0].State != "suspect" {
		t.Fatalf("unknown state decoded as %q, want the suspect degradation", got.Members[0].State)
	}
}

// TestMemberSyncFrameRejects pins the codec's validation failures.
func TestMemberSyncFrameRejects(t *testing.T) {
	if _, err := AppendMemberSyncPayload(nil, MemberSyncPayload{Known: -1}); err == nil {
		t.Fatal("negative known encoded")
	}
	data := encodeMemberSyncFrame(t, sampleMemberSync(), false)
	// Truncated payload must fail cleanly.
	f := &Frame{Type: FrameMemberSync, Payload: data[FrameHeaderLen : len(data)-3]}
	if _, err := DecodeMemberSyncFrame(f); err == nil {
		t.Fatal("truncated member sync decoded")
	}
	// Trailing garbage must fail too.
	f = &Frame{Type: FrameMemberSync, Payload: append(append([]byte(nil), data[FrameHeaderLen:]...), 0xAA)}
	if _, err := DecodeMemberSyncFrame(f); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// An out-of-range state code must be rejected, not misread.
	bad := append([]byte(nil), data[FrameHeaderLen:]...)
	bad[len(bad)-1] = 9
	f = &Frame{Type: FrameMemberSync, Payload: bad}
	if _, err := DecodeMemberSyncFrame(f); err == nil {
		t.Fatal("unknown state code accepted")
	}
	// Unsorted entries are non-canonical and must be rejected.
	dup := MemberSyncPayload{From: "n", Members: []MemberEntry{
		{Node: "a", Incarnation: 1, Heartbeat: 1, State: "alive"},
		{Node: "a", Incarnation: 2, Heartbeat: 2, State: "alive"},
	}}
	enc, err := AppendMemberSyncPayload(nil, dup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMemberSyncFrame(&Frame{Type: FrameMemberSync, Payload: enc}); err == nil {
		t.Fatal("duplicate node entries accepted")
	}
}

// FuzzMemberSyncFrame throws arbitrary bytes at the member-sync decoder: it
// must never panic, and anything it accepts must re-encode and decode back to
// the same payload (the codec is canonical).
func FuzzMemberSyncFrame(f *testing.F) {
	valid := encodeMemberSyncFrame(f, sampleMemberSync(), false)
	f.Add(valid[FrameHeaderLen:])
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(make([]byte, memberSyncFixed))
	f.Add(bytes.Repeat([]byte{0xFF}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		frame := &Frame{Type: FrameMemberSync, Payload: data}
		p, err := DecodeMemberSyncFrame(frame)
		if err != nil {
			return
		}
		reenc, err := AppendMemberSyncPayload(nil, p)
		if err != nil {
			t.Fatalf("decoded payload fails to re-encode: %v (%+v)", err, p)
		}
		p2, err := DecodeMemberSyncFrame(&Frame{
			Type:    FrameMemberSync,
			Flags:   MemberSyncFlags(p, false),
			Payload: reenc,
		})
		if err != nil {
			t.Fatalf("re-encoded payload fails to decode: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("unstable round trip:\n first %+v\nsecond %+v", p, p2)
		}
	})
}
