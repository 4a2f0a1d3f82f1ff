package transport

import (
	"errors"
	"testing"
)

func TestClusterGetFrameRoundTrip(t *testing.T) {
	c, _ := newFrameConn()
	for _, want := range []ClusterGetPayload{
		{Title: "feature", Index: 7, ClusterBytes: 256 << 10},
		{Title: "", Index: 0, ClusterBytes: 0},
		{Title: "ταινία", Index: 1<<31 - 1, ClusterBytes: 1 << 62},
	} {
		if err := c.WriteClusterGetFrame(want); err != nil {
			t.Fatal(err)
		}
		m, f, err := c.ReadFrameOrMessage(nil)
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			t.Fatalf("got JSON message %+v, want binary frame", m)
		}
		got, err := DecodeClusterGetFrame(f)
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

func TestClusterGetFrameWriteValidation(t *testing.T) {
	c, _ := newFrameConn()
	for _, bad := range []ClusterGetPayload{
		{Title: "t", Index: -1},
		{Title: "t", ClusterBytes: -1},
		{Title: string(make([]byte, 0x10000))},
	} {
		if err := c.WriteClusterGetFrame(bad); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("WriteClusterGetFrame(%+v) = %v, want ErrBadFrame", bad, err)
		}
	}
}

func TestDecodeClusterGetFrameErrors(t *testing.T) {
	mk := func(typ byte, payload []byte) *Frame {
		return &Frame{Version: FrameVersion, Type: typ, Payload: payload}
	}
	long := make([]byte, clusterGetFixed+1)
	overflow := make([]byte, clusterGetFixed)
	overflow[4] = 0xFF
	for name, f := range map[string]*Frame{
		"wrong type":     mk(FrameCluster, make([]byte, clusterGetFixed)),
		"short":          mk(FrameClusterGet, make([]byte, clusterGetFixed-1)),
		"title past end": mk(FrameClusterGet, append(make([]byte, 13), 5)),
		"trailing bytes": mk(FrameClusterGet, long),
		"bytes overflow": mk(FrameClusterGet, overflow),
	} {
		if _, err := DecodeClusterGetFrame(f); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// FuzzClusterGetFrame feeds arbitrary payload bytes through the decoder: it
// must reject or accept cleanly (no panic), and every accepted payload must
// re-encode over a wire round trip to the identical value.
func FuzzClusterGetFrame(f *testing.F) {
	f.Add(make([]byte, clusterGetFixed))
	f.Add(append([]byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2}, 'h', 'i'))
	f.Add([]byte{})
	f.Add(make([]byte, clusterGetFixed+4))
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr := &Frame{Version: FrameVersion, Type: FrameClusterGet, Payload: payload}
		p, err := DecodeClusterGetFrame(fr)
		if err != nil {
			return
		}
		c, _ := newFrameConn()
		if werr := c.WriteClusterGetFrame(p); werr != nil {
			t.Fatalf("decoded payload %+v does not re-encode: %v", p, werr)
		}
		_, rt, rerr := c.ReadFrameOrMessage(nil)
		if rerr != nil || rt == nil {
			t.Fatalf("round trip read failed: %v", rerr)
		}
		got, derr := DecodeClusterGetFrame(rt)
		rt.Release()
		if derr != nil {
			t.Fatal(derr)
		}
		if got != p {
			t.Fatalf("round trip = %+v, want %+v", got, p)
		}
	})
}
