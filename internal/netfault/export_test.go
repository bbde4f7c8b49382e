package netfault

import "net"

// WrapConn arms a single connection from its own injector, for tests and
// the fuzz target; Listener shares one injector across conns instead.
func WrapConn(c net.Conn, spec Spec) *Conn {
	spec = spec.withDefaults()
	return newFaultConn(c, spec, newInjector(spec))
}
