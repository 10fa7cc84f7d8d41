(** The [ppdc.rpc/1] wire protocol.

    Line-delimited JSON: each request is one JSON object on one line,
    each response is exactly one JSON object on one line, in request
    order. A request is

    {v {"id": <any json>, "method": "<name>", "params": { ... }} v}

    ([id] is echoed verbatim in the response and otherwise
    uninterpreted; [params] defaults to [{}]). A response is either

    {v {"id": <echo>, "ok": true, "result": { ... }} v}

    or

    {v {"id": <echo>, "ok": false,
        "error": {"code": "<slug>", "message": "<text>"}} v}

    When a request cannot be parsed at all (malformed JSON, not an
    object, oversized line) the error response carries [id: null] —
    there is nothing trustworthy to echo. Malformed input never
    terminates the connection or the server; the stream resynchronizes
    at the next newline. *)

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Invalid_request  (** valid JSON but not a request object *)
  | Line_too_long  (** request line exceeded the transport bound *)
  | Unknown_method
  | Unknown_session  (** the named session does not exist *)
  | Session_evicted
      (** the named session existed but was evicted by the per-tenant
          or global session budget; the client must [load_topology]
          again (distinct from [Unknown_session] so a well-behaved
          client can tell "typo" from "reclaimed") *)
  | Invalid_params  (** missing/ill-typed parameter, infeasible value *)
  | Overloaded
      (** worker pool and pending queue full — the connection was
          rejected at accept time; retry later *)
  | Deadline_exceeded
      (** the request could not start within [--request-timeout] of its
          arrival (it spent the whole budget queued) *)
  | Internal_error  (** handler raised; the message carries details *)

type request = {
  id : Ppdc_prelude.Json.t;  (** [Null] when absent *)
  meth : string;
  params : Ppdc_prelude.Json.t;  (** [Obj []] when absent *)
}

val request_of_line : string -> (request, error_code * string) result
(** Parse one request line. [Error] covers malformed JSON
    ([Parse_error]) and structurally invalid requests
    ([Invalid_request]); the caller answers those with
    {!error_response} [~id:Null]. *)

val ok_response : id:Ppdc_prelude.Json.t -> Ppdc_prelude.Json.t -> string
(** Render a success line (no trailing newline). *)

val error_response :
  id:Ppdc_prelude.Json.t -> error_code -> string -> string
(** Render an error line (no trailing newline). *)

(** {1 Typed parameter extraction}

    Helpers for handlers; each raises {!Bad_params} with a
    human-readable message when the field is present but ill-typed,
    out of range, or (for the [req_*] variants) missing. *)

exception Bad_params of string

val str_param : Ppdc_prelude.Json.t -> string -> string option
val req_str_param : Ppdc_prelude.Json.t -> string -> string

val int_param : Ppdc_prelude.Json.t -> string -> int option
(** Accepts only integral [Num]s. *)

val float_param : Ppdc_prelude.Json.t -> string -> float option
val bool_param : Ppdc_prelude.Json.t -> string -> bool option

val float_list_param : Ppdc_prelude.Json.t -> string -> float array option
(** A [List] of [Num]s. *)
