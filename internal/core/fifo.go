package core

// FIFO is an allocation-friendly queue for hot-path box state. Popping
// advances a head index instead of reslicing away the front, and
// pushing compacts the backing array once the consumed prefix
// dominates it, so steady-state producer/consumer traffic reuses one
// backing array instead of reallocating on every wrap (a plain
// `q = append(q, v)` / `q = q[1:]` pair strands its capacity behind
// the advancing head and allocates forever).
//
// The zero value is an empty queue. The first Push gives it room for
// fifoStart elements, so a queue that never holds more allocates once.
type FIFO[T any] struct {
	buf  []T
	head int
}

// fifoStart is a FIFO's first capacity: a small power of two, so that
// growth by append keeps doubling from there.
const fifoStart = 8

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && (q.head == len(q.buf) || 2*q.head >= cap(q.buf)) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	if q.buf == nil {
		q.buf = make([]T, 0, fifoStart)
	}
	q.buf = append(q.buf, v)
}

// Peek returns the head element without removing it. It panics on an
// empty queue, like indexing an empty slice would.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head element, clearing the vacated slot
// so pooled objects do not linger behind the head.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}
