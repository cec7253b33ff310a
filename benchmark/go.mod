module hydradb/benchmark

go 1.22

require hydradb v0.0.0

replace hydradb => ../
