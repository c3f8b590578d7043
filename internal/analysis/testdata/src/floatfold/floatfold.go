// Fixture for the floatfold analyzer: float reductions folded in
// goroutine completion order.
package floatfold

import (
	"sync"

	"repro/internal/parallel"
)

// channelSum receives partials in completion order and folds them into a
// float: a different schedule gives different low bits.
func channelSum(ch chan float64) float64 {
	sum := 0.0
	for v := range ch {
		sum += v // want `float accumulation into shared "sum" while ranging over a channel`
	}
	return sum
}

// mutexSum is the shared-accumulator-under-a-mutex pattern: the mutex
// removes the race but not the completion-order dependence.
func mutexSum(parts [][]float64) float64 {
	var (
		mu  sync.Mutex
		sum float64
		wg  sync.WaitGroup
	)
	for _, part := range parts {
		wg.Add(1)
		go func(vs []float64) {
			defer wg.Done()
			local := 0.0
			for _, v := range vs {
				local += v
			}
			mu.Lock()
			sum += local // want `float accumulation into shared "sum" inside a goroutine`
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	return sum
}

// taskPool hands each submitted task down a channel to a worker
// goroutine, so tasks run concurrently with their submitter.
type taskPool struct {
	tasks chan func() error
	done  chan error
}

func newTaskPool() *taskPool {
	p := &taskPool{tasks: make(chan func() error), done: make(chan error, 1)}
	go func() {
		var err error
		for t := range p.tasks {
			if terr := t(); terr != nil && err == nil {
				err = terr
			}
		}
		p.done <- err
	}()
	return p
}

func (p *taskPool) Submit(t func() error) error {
	p.tasks <- t
	return nil
}

func (p *taskPool) Close() error {
	close(p.tasks)
	return <-p.done
}

// poolAppend collects float results from pool tasks in completion order;
// any later non-commutative fold inherits that order.
func poolAppend(parts []float64) ([]float64, error) {
	var (
		mu  sync.Mutex
		out []float64
	)
	pool := newTaskPool()
	for _, p := range parts {
		p := p
		if err := pool.Submit(func() error {
			mu.Lock()
			out = append(out, p*p) // want `append of float values to shared "out" inside a concurrently executed closure`
			mu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := pool.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// chunkFold is the deterministic pattern: per-chunk partials land at
// their chunk index and are folded sequentially in index order.
func chunkFold(xs []float64) (float64, error) {
	partials, err := parallel.MapChunks(4, len(xs), func(c parallel.Chunk) (float64, error) {
		s := 0.0
		for _, v := range xs[c.Lo:c.Hi] {
			s += v
		}
		return s, nil
	})
	if err != nil {
		return 0, err
	}
	return parallel.Fold(partials, 0.0, func(a, p float64) float64 { return a + p }), nil
}

// intChannelCount is exact integer arithmetic: completion order cannot
// change the result, so counting from a channel is fine.
func intChannelCount(ch chan int) int {
	n := 0
	for v := range ch {
		n += v
	}
	return n
}

// stageLocalSum accumulates into a variable declared inside the stage
// closure; nothing shared, nothing flagged.
func stageLocalSum(parts []float64) error {
	g := parallel.NewGraph()
	g.Add("sum", func() error {
		s := 0.0
		for _, v := range parts {
			s += v
		}
		_ = s
		return nil
	})
	return g.Run(0)
}
