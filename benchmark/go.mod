module fsnewtop/benchmark

go 1.22

require fsnewtop v0.0.0

replace fsnewtop => ../
