package transport

// SetCapacity overrides the size the pool grows its next pipes to, so a
// test can make a body overflow its pipe.
func (pp *PipePool) SetCapacity(n int) { pp.capacity = n }
