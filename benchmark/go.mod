module fluodb/benchmark

go 1.22

require fluodb v0.0.0

replace fluodb => ../
