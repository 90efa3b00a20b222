package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// runShards runs shard(ctx, i) for every shard i in [0, n) — inline for a
// single shard, one goroutine each otherwise — and returns once all have
// finished. Each shard writes its own slot of the caller's result slice,
// so the caller merges in shard order after the join and the outcome never
// depends on scheduling. pprof labels attribute CPU samples to the pool
// and shard, so profiles of a selector run show which shard burns the
// time.
//
// Shard errors fold into one: cancelled shards are tallied in
// core.select.shards_cancelled on observed evaluators and the run reports
// ctx's error, so a half-scanned merge can never leak; any other shard
// error (a branch-and-bound node-cap overrun) surfaces as-is, lowest
// shard first.
func runShards(ctx context.Context, e *Evaluator, n int, pool string, shard func(ctx context.Context, i int) error) error {
	errs := make([]error, n)
	if n == 1 {
		errs[0] = shard(ctx, 0)
	} else {
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go pprof.Do(ctx,
				pprof.Labels("tracescale.pool", pool, "tracescale.shard", strconv.Itoa(i)),
				func(ctx context.Context) {
					defer wg.Done()
					errs[i] = shard(ctx, i)
				})
		}
		wg.Wait()
	}

	var firstErr error
	var failed int64
	for _, err := range errs {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil && ctx.Err() != nil {
		if reg := e.obs; reg != nil {
			reg.Add("core.select.shards_cancelled", failed)
		}
		return ctx.Err()
	}
	return firstErr
}
