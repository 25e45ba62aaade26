package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps a net.Listener so that every byte read from or
// written to an accepted connection is counted. The benchmark hands it
// to DistConfig.Listener: the wire bytes of a run are then measured at
// the socket, outside the program, and not taken from the program's own
// StepStats accounting.
//
// In a two-machine cluster machine 1 dials machine 0, so the one
// connection between them is accepted by machine 0's listener and its
// two directions are that connection's reads and writes.
type countingListener struct {
	net.Listener
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

// total returns bytes read plus bytes written so far.
func (l *countingListener) total() int64 { return l.read.Load() + l.written.Load() }

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}
