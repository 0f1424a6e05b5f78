package ygm

import (
	"fmt"
	"strings"
	"testing"

	"tripoll/internal/serialize"
)

func nopHandler(*Rank, *serialize.Decoder) {}

// mustPanic runs f and returns its panic payload as text, failing the test
// when f returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected a panic")
		}
		msg = fmt.Sprint(p)
	}()
	f()
	return ""
}

// TestReleasedIDsReusedLIFO: released ids come back last-released first,
// before any new id, so registration sequences that release in reverse
// order get the same ids again.
func TestReleasedIDsReusedLIFO(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	a := w.RegisterHandler(nopHandler)
	b := w.RegisterHandler(nopHandler)
	c := w.RegisterHandler(nopHandler)
	w.ReleaseHandlers(a, c)
	if got := w.RegisterHandler(nopHandler); got != c {
		t.Errorf("first reuse = %d, want last released %d", got, c)
	}
	if got := w.RegisterHandler(nopHandler); got != a {
		t.Errorf("second reuse = %d, want %d", got, a)
	}
	if got := w.RegisterHandler(nopHandler); got != c+1 {
		t.Errorf("with the free list empty got %d, want the new id %d", got, c+1)
	}

	// Releasing in reverse registration order replays the same ids.
	w.ReleaseHandlers(c+1, a, c, b)
	for i, want := range []HandlerID{b, c, a, c + 1} {
		if got := w.RegisterHandler(nopHandler); got != want {
			t.Errorf("replayed registration %d got id %d, want %d", i, got, want)
		}
	}
}

// TestReleaseMisusePanics: the relay handler, a free id and an id never
// handed out cannot be released, and nothing can be released inside a
// region.
func TestReleaseMisusePanics(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	h := w.RegisterHandler(nopHandler)
	w.ReleaseHandlers(h)
	for name, id := range map[string]HandlerID{"forward": w.hForward, "released": h, "unassigned": h + 5} {
		if msg := mustPanic(t, func() { w.ReleaseHandlers(id) }); !strings.Contains(msg, "not registered") {
			t.Errorf("%s: panic %q", name, msg)
		}
	}
	h = w.RegisterHandler(nopHandler)
	msg := mustPanic(t, func() {
		w.Parallel(func(r *Rank) {
			if r.ID() == 0 {
				w.ReleaseHandlers(h)
			}
		})
	})
	if !strings.Contains(msg, "inside a parallel region") {
		t.Errorf("in-region release: panic %q", msg)
	}
}

// TestReleaseClearsNameAndProfile: a reused id carries neither the old
// label nor the old handler's message counts into HandlerProfiles.
func TestReleaseClearsNameAndProfile(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	send := func(h HandlerID, n int) {
		w.Parallel(func(r *Rank) {
			for i := 0; i < n; i++ {
				r.Async(1-r.ID(), h, r.Enc())
			}
		})
	}
	old := w.RegisterHandlerNamed("old-phase", nopHandler)
	send(old, 5)
	w.ReleaseHandlers(old)
	if name := w.HandlerName(old); name == "old-phase" {
		t.Errorf("released id still named %q", name)
	}
	if ps := w.HandlerProfiles(); len(ps) != 0 {
		t.Errorf("profiles after release = %+v, want none", ps)
	}

	reused := w.RegisterHandler(nopHandler)
	if reused != old {
		t.Fatalf("reuse got id %d, want %d", reused, old)
	}
	send(reused, 3)
	ps := w.HandlerProfiles()
	if len(ps) != 1 || ps[0].ID != reused || ps[0].Messages != 6 {
		t.Fatalf("profiles = %+v, want one entry with 6 messages", ps)
	}
	if strings.Contains(ps[0].Name, "old-phase") {
		t.Errorf("reused id shows the stale name %q", ps[0].Name)
	}
}

// TestMessageForReleasedHandlerPanics: a message naming a released id is a
// protocol error, reported by id rather than as a nil-func call.
func TestMessageForReleasedHandlerPanics(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	live := w.RegisterHandler(nopHandler)
	gone := w.RegisterHandler(nopHandler)
	w.ReleaseHandlers(gone)
	msg := mustPanic(t, func() {
		w.Parallel(func(r *Rank) {
			if r.ID() == 0 {
				r.Async(1, live, r.Enc())
				r.Async(1, gone, r.Enc())
			}
		})
	})
	if want := fmt.Sprintf("message for released handler %d", gone); !strings.Contains(msg, want) {
		t.Errorf("panic %q, want it to contain %q", msg, want)
	}
}
