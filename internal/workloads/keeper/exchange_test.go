package keeper_test

import (
	"bytes"
	"fmt"
	"testing"

	"sgxperf/internal/sgx"
	"sgxperf/internal/workloads/keeper"
)

// Ownership of a request's buffers: a request fills an exchange from its
// client's free list and gives it back, except for the reply packet a
// getData response's Data aliases, which the caller keeps. Run these
// under -race with TestOneClientManyThreads.

// followUps serves a setData, a getData and an exists on path: every
// buffer of an exchange is written again, and each reply fits in the
// room of a larger earlier one.
func followUps(ctx *sgx.Context, c *keeper.Client, path string, n int) error {
	data := bytes.Repeat([]byte{byte(n)}, 16+n%64)
	for _, req := range []keeper.Request{
		{Op: keeper.OpSetData, Path: path, Data: data, Version: -1},
		{Op: keeper.OpGetData, Path: path, Version: -1},
		{Op: keeper.OpExists, Path: path},
	} {
		r, err := c.Do(ctx, req)
		if err != nil || r.Err != "" {
			return fmt.Errorf("%s %s: %v %q", req.Op, path, err, r.Err)
		}
		if req.Op == keeper.OpGetData && !bytes.Equal(r.Data, data) {
			return fmt.Errorf("getData %s: %q, want %q", path, r.Data, data)
		}
	}
	return nil
}

// TestGetDataReplyOutlivesRequests holds a getData response's Data while
// the same client serves more requests, first in sequence and then from
// several simulated threads, and requires its bytes to stay unchanged.
func TestGetDataReplyOutlivesRequests(t *testing.T) {
	h, ctx, w := newKeeper(t)
	c, err := w.Connect(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("held reply "), 100)
	if r, err := c.Do(ctx, keeper.Request{Op: keeper.OpCreate, Path: "/held", Data: want, Version: -1}); err != nil || r.Err != "" {
		t.Fatalf("create: %v %q", err, r.Err)
	}
	r, err := c.Do(ctx, keeper.Request{Op: keeper.OpGetData, Path: "/held", Version: -1})
	if err != nil || r.Err != "" || !bytes.Equal(r.Data, want) {
		t.Fatalf("getData: %v %q, %d bytes", err, r.Err, len(r.Data))
	}
	held := r.Data

	for n := 0; n < 20; n++ {
		if err := followUps(ctx, c, "/held", n); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(held, want) {
		t.Fatalf("a later request in sequence overwrote the held reply: %q", held)
	}

	const threads, rounds = 4, 25
	errs := make(chan error, threads)
	for i := 0; i < threads; i++ {
		path := fmt.Sprintf("/t%d", i)
		if r, err := c.Do(ctx, keeper.Request{Op: keeper.OpCreate, Path: path, Version: -1}); err != nil || r.Err != "" {
			t.Fatalf("create %s: %v %q", path, err, r.Err)
		}
		if err := h.Spawn("t"+path, func(ctx *sgx.Context) {
			errs <- func() error {
				for n := 0; n < rounds; n++ {
					if err := followUps(ctx, c, path, n); err != nil {
						return err
					}
				}
				return nil
			}()
		}); err != nil {
			t.Fatal(err)
		}
	}
	h.Wait()
	for i := 0; i < threads; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if !bytes.Equal(held, want) {
		t.Fatalf("a later request from another thread overwrote the held reply: %q", held)
	}
	if n := keeper.FreeExchanges(c); n < 1 || n > threads {
		t.Errorf("free list holds %d exchanges after %d threads, want 1..%d", n, threads, threads)
	}
}

// TestFreeListHoldsOneExchange pins that the free list is bounded by the
// requests in flight, not by the requests made: after any number of
// requests in sequence it holds one exchange.
func TestFreeListHoldsOneExchange(t *testing.T) {
	_, ctx, w := newKeeper(t)
	c, err := w.Connect(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := keeper.FreeExchanges(c); n != 0 {
		t.Fatalf("a new client's free list holds %d exchanges", n)
	}
	if r, err := c.Do(ctx, keeper.Request{Op: keeper.OpCreate, Path: "/seq", Version: -1}); err != nil || r.Err != "" {
		t.Fatalf("create: %v %q", err, r.Err)
	}
	for n := 0; n < 100; n++ {
		if err := followUps(ctx, c, "/seq", n); err != nil {
			t.Fatal(err)
		}
		if got := keeper.FreeExchanges(c); got != 1 {
			t.Fatalf("after %d requests in sequence the free list holds %d exchanges, want 1", 3*n+4, got)
		}
	}
}
