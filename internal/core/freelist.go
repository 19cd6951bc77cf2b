package core

import "unsafe"

// freeListSlabBytes is how much an empty FreeList with no Slab size
// makes at once: 89 of the pipeline's quads, or 7 vertex groups, so a
// scene that draws a handful of vertices does not pay for a working
// set of them.
const freeListSlabBytes = 16 << 10

// FreeList recycles one kind of object for the one goroutine that
// clocks every site taking and returning them, so it needs no locking.
// An empty list makes a slab of objects in one allocation and hands out
// pointers into it: a box's messages, the pipeline's tiles and quads
// and a shader's threads come a slab at a time, not one allocation
// each. Made counts every object made, so at drain a list whose
// objects all came back holds Made of them.
//
// The zero value is an empty list making 16 KiB slabs.
type FreeList[T any] struct {
	// Slab is how many objects an empty list makes at once; 0 makes
	// 16 KiB worth (one object at least). Size it to the most a box can
	// have out at once when that bound is small and known.
	Slab int

	free []*T
	rest []T // the rest of the last slab, not yet handed out
	made int
}

// Get returns a zeroed object.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		var zero T
		*x = zero
		return x
	}
	if len(l.rest) == 0 {
		n := l.Slab
		if n <= 0 {
			var zero T
			n = max(1, freeListSlabBytes/int(unsafe.Sizeof(zero)))
		}
		l.rest = make([]T, n)
		l.made += n
	}
	x := &l.rest[0]
	l.rest = l.rest[1:]
	return x
}

// Put returns an object. The caller must hold the only reference.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// Made returns how many objects the list has made.
func (l *FreeList[T]) Made() int { return l.made }

// Idle returns how many objects the list holds: returned ones and the
// rest of the last slab.
func (l *FreeList[T]) Idle() int { return len(l.free) + len(l.rest) }
