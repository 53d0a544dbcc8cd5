package obs

import (
	"testing"
	"time"
)

func TestSpanIdentityPropagation(t *testing.T) {
	root := NewRootSpan("client.request")
	if root.TraceID == 0 || root.SpanID == 0 {
		t.Fatalf("root ids not assigned: %+v", root)
	}
	child := root.Child("server.rpc")
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID || child.SpanID == 0 {
		t.Fatalf("child identity wrong: %+v", child)
	}
	if child.SpanID == root.SpanID {
		t.Fatal("child reused parent span id")
	}

	tc := child.Context()
	if !tc.Sampled || tc.TraceID != root.TraceID || tc.SpanID != child.SpanID {
		t.Fatalf("context = %+v", tc)
	}
	remote := StartRemote("server.request", tc)
	if remote.TraceID != root.TraceID || remote.ParentID != child.SpanID {
		t.Fatalf("remote identity wrong: %+v", remote)
	}

	// Untraced spans stay untraced and propagate nothing.
	plain := NewSpan("x")
	if c := plain.Child("y"); c.TraceID != 0 || c.SpanID != 0 {
		t.Fatalf("untraced child got identity: %+v", c)
	}
	if tc := plain.Context(); tc != (TraceContext{}) {
		t.Fatalf("untraced context = %+v", tc)
	}
	if s := StartRemote("z", TraceContext{}); s.TraceID != 0 {
		t.Fatalf("remote span from zero context got identity: %+v", s)
	}
	var nilSpan *Span
	if tc := nilSpan.Context(); tc != (TraceContext{}) {
		t.Fatal("nil span context not zero")
	}
}

func TestEncodeDecodeSpans(t *testing.T) {
	root := StartRemote("server.request", TraceContext{TraceID: 7, SpanID: 9, Sampled: true})
	root.Op = "read"
	root.Path = "/a/b"
	root.Server = "io-2"
	root.Bricks = 4
	sub := root.Child("server.subfile")
	sub.Extents = 3
	sub.Bytes = 4096
	sub.Swept = 29184
	sub.End()
	root.End()

	data := EncodeSpans(root)
	roots, err := DecodeSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	got := roots[0]
	if got.TraceID != 7 || got.ParentID != 9 || got.Name != "server.request" ||
		got.Op != "read" || got.Path != "/a/b" || got.Server != "io-2" || got.Bricks != 4 {
		t.Fatalf("root = %+v", got)
	}
	if got.Duration <= 0 || got.Start.IsZero() {
		t.Fatalf("timing lost: %+v", got)
	}
	kids := got.Children()
	if len(kids) != 1 || kids[0].Name != "server.subfile" || kids[0].Extents != 3 || kids[0].Bytes != 4096 || kids[0].Swept != 29184 {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].ParentID != got.SpanID || kids[0].TraceID != 7 {
		t.Fatalf("child identity lost: %+v", kids[0])
	}

	// Garbage and truncation must fail decode cleanly, never panic.
	if _, err := DecodeSpans(nil); err == nil {
		t.Fatal("nil decoded")
	}
	for i := 0; i < len(data); i++ {
		if _, err := DecodeSpans(data[:i]); err == nil {
			t.Fatalf("prefix %d decoded", i)
		}
	}
	if _, err := DecodeSpans(append(append([]byte(nil), data...), 0xff)); err == nil {
		t.Fatal("trailing garbage decoded")
	}

	if EncodeSpans(nil) != nil {
		t.Fatal("nil root should encode to nil")
	}
}

func TestTraceLogByTraceID(t *testing.T) {
	l := NewTraceLog(4)
	a := NewRootSpan("a")
	b := NewRootSpan("b")
	l.Add(&Trace{Root: a})
	l.Add(&Trace{Root: b})
	if got := l.ByTraceID(a.TraceID); got == nil || got.Root != a {
		t.Fatal("lookup by trace id failed")
	}
	if l.ByTraceID(0) != nil {
		t.Fatal("zero id must not match")
	}
}

func TestTraceLogRingNoRealloc(t *testing.T) {
	l := NewTraceLog(3)
	for i := 0; i < 10; i++ {
		l.Add(&Trace{Root: NewSpan("s")})
	}
	if l.Len() != 3 || len(l.buf) != 3 {
		t.Fatalf("ring grew: len=%d cap=%d", l.Len(), len(l.buf))
	}
	// Ordering survives wraparound.
	first := &Trace{Root: NewSpan("first")}
	last := &Trace{Root: NewSpan("last")}
	l.Add(first)
	l.Add(&Trace{Root: NewSpan("mid")})
	l.Add(last)
	got := l.Traces()
	if got[0] != first || got[2] != last {
		t.Fatalf("order wrong after wraparound")
	}
	if l.Last() != last {
		t.Fatal("Last wrong after wraparound")
	}
}

func TestSpanStartRemoteTiming(t *testing.T) {
	s := StartRemote("x", TraceContext{TraceID: 1, SpanID: 2, Sampled: true})
	time.Sleep(time.Millisecond)
	s.End()
	if s.Duration < time.Millisecond {
		t.Fatalf("duration = %v", s.Duration)
	}
}
