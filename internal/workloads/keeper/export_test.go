package keeper

// FreeExchanges returns how many exchanges c's free list holds.
func FreeExchanges(c *Client) int {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	return len(c.free)
}
