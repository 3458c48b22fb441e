package orb

import "sync"

// Pool is a fixed-size worker pool with an unbounded FIFO task queue: the
// model of the prototype's request-handling thread pool. With more
// concurrent request streams than workers, tasks queue — which is the
// mechanism behind the Figure 7 throughput knee at group size ≈ pool size.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []func()
	closed bool
	wg     sync.WaitGroup

	size int
}

// NewPool starts a pool with the given number of workers.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = 1
	}
	p := &Pool{size: size}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go p.worker()
	}
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.size }

// Submit enqueues a task; it never blocks. Tasks submitted after Close are
// dropped.
func (p *Pool) Submit(task func()) {
	p.mu.Lock()
	if !p.closed {
		p.tasks = append(p.tasks, task)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Close stops the workers after their current task and discards the queue.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.tasks = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.tasks) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		task := p.tasks[0]
		p.tasks = p.tasks[1:]
		p.mu.Unlock()
		task()
	}
}
