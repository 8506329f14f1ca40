package chain

// DeltaIndexSize reports how many deployments and cell writes the delta
// index holds across all blocks — what Forget and TrimEvents must release.
func (c *Chain) DeltaIndexSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, bc := range c.changes {
		n += len(bc.coded) + len(bc.written)
	}
	return n
}
