type endpoint = To_os | To_enclave of int

type t = { q : (endpoint * string) Queue.t; capacity : int }

let create ?(capacity = 8) () =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be positive";
  { q = Queue.create (); capacity }

let send t ~from_ msg =
  if Queue.length t.q < t.capacity then begin
    Queue.push (from_, msg) t.q;
    true
  end
  else false

let recv t = Queue.take_opt t.q
let pending t = Queue.length t.q
let clear t = Queue.clear t.q
