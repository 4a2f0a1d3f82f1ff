package transport

import (
	"errors"
	"testing"
)

// sendPrefixAnnounce queues p and flushes the queue: the server queues the
// announcement so it rides the first cluster frame's writev.
func sendPrefixAnnounce(c *Conn, p PrefixAnnouncePayload) error {
	if err := c.QueuePrefixAnnounceFrame(p); err != nil {
		return err
	}
	return c.Flush()
}

func TestPrefixAnnounceFrameRoundTrip(t *testing.T) {
	c, _ := newFrameConn()
	for _, want := range []PrefixAnnouncePayload{
		{},
		{PrefixClusters: 1, StartupRTTs: 0},
		{PrefixClusters: 512, StartupRTTs: 1, RelayTail: true},
		{PrefixClusters: 1<<31 - 1, StartupRTTs: 0xFFFF},
	} {
		if err := sendPrefixAnnounce(c, want); err != nil {
			t.Fatal(err)
		}
		m, f, err := c.ReadFrameOrMessage(nil)
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			t.Fatalf("got JSON message %+v, want binary frame", m)
		}
		got, err := DecodePrefixAnnounceFrame(f)
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

func TestPrefixAnnounceFrameWriteValidation(t *testing.T) {
	c, _ := newFrameConn()
	for _, bad := range []PrefixAnnouncePayload{
		{PrefixClusters: -1},
		{StartupRTTs: -1},
		{StartupRTTs: 0x10000},
	} {
		if err := c.QueuePrefixAnnounceFrame(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("QueuePrefixAnnounceFrame(%+v) = %v, want ErrBadFrame", bad, err)
		}
	}
}

func TestDecodePrefixAnnounceFrameErrors(t *testing.T) {
	mk := func(typ byte, payload []byte) *Frame {
		return &Frame{Version: FrameVersion, Type: typ, Payload: payload}
	}
	cases := map[string]*Frame{
		"wrong type":    mk(FrameCluster, make([]byte, prefixAnnounceLen)),
		"short":         mk(FramePrefixAnnounce, make([]byte, prefixAnnounceLen-1)),
		"long":          mk(FramePrefixAnnounce, make([]byte, prefixAnnounceLen+1)),
		"unknown flags": mk(FramePrefixAnnounce, []byte{0, 0, 0, 1, 0, 0, 0x80}),
	}
	for name, f := range cases {
		if _, err := DecodePrefixAnnounceFrame(f); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// FuzzPrefixAnnounceFrame feeds arbitrary payload bytes through the decoder:
// it must reject or accept cleanly (no panic), and every accepted payload
// must re-encode over a wire round trip to the identical value — the same
// contract the framing, ledger-sync, and member-sync fuzz targets enforce.
func FuzzPrefixAnnounceFrame(f *testing.F) {
	f.Add(make([]byte, prefixAnnounceLen))
	f.Add([]byte{0, 0, 2, 0, 0, 1, 1})
	f.Add([]byte{})
	f.Add(make([]byte, prefixAnnounceLen+3))
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr := &Frame{Version: FrameVersion, Type: FramePrefixAnnounce, Payload: payload}
		p, err := DecodePrefixAnnounceFrame(fr)
		if err != nil {
			return
		}
		c, _ := newFrameConn()
		if werr := sendPrefixAnnounce(c, p); werr != nil {
			t.Fatalf("decoded payload %+v does not re-encode: %v", p, werr)
		}
		_, rt, rerr := c.ReadFrameOrMessage(nil)
		if rerr != nil || rt == nil {
			t.Fatalf("round trip read failed: %v", rerr)
		}
		got, derr := DecodePrefixAnnounceFrame(rt)
		rt.Release()
		if derr != nil {
			t.Fatal(derr)
		}
		if got != p {
			t.Fatalf("round trip = %+v, want %+v", got, p)
		}
	})
}
