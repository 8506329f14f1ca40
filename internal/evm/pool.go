package evm

import (
	"sync"

	"repro/internal/etypes"
	"repro/internal/u256"
)

// Frames are pooled across calls: one probe emulation enters hundreds of
// frames, and each used to allocate a Frame, a growing stack slice, and a
// memory buffer. The fixed-array stack plus the retained memory buffer make
// a recycled Frame allocation-free to reacquire. Release scrubs every field
// the interpreter or a tracer could observe; the Tracer contract already
// forbids retaining a *Frame beyond a callback, so reuse is invisible.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

func acquireFrame() *Frame {
	return framePool.Get().(*Frame)
}

func releaseFrame(f *Frame) {
	f.evm = nil
	f.address = etypes.Address{}
	f.codeAddress = etypes.Address{}
	f.caller = etypes.Address{}
	f.input = nil
	f.value = u256.Zero()
	f.code = nil
	f.static = false
	f.stack.reset()
	f.memory.release()
	f.gas = 0
	f.returnData = nil
	f.jumpdests = nil
	f.prog = program{}
	framePool.Put(f)
}
