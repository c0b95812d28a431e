// Command plugin is a module of its own nested in the fixture's tree:
// its dead code is that module's business and is not reported, but what
// it uses of the root package stays live.
package main

import "unused"

func leftover() {}

func main() { unused.ForPlugin() }
